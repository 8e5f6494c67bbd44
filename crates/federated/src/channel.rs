//! Communication channel: wire encoding, quantization, additive noise, and
//! the paper's communication-cost accounting.
//!
//! The uplink carries each device's generated samples `Theta^(z)` (an
//! `n x r^(z)` matrix); the downlink carries the `r^(z)` global cluster
//! assignments. Following Section IV-E, with `q`-bit scalar quantization the
//! uplink costs `n * q * sum_z r^(z)` bits and the downlink
//! `sum_z r^(z) * ceil(log2 L)` bits.
//!
//! The Fig. 7 robustness experiment perturbs each uploaded sample with
//! Gaussian noise of variance `delta / sqrt(r^(z))`; that transform lives
//! here so the scheme itself stays noise-agnostic.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use fedsc_linalg::random::standard_normal;
use fedsc_linalg::Matrix;
use rand::Rng;

/// Channel configuration.
#[derive(Debug, Clone)]
pub struct ChannelConfig {
    /// Bits per scalar on the uplink (the paper's `q`; 64 = lossless f64).
    pub bits_per_scalar: u32,
    /// Communication-noise level `delta` (0 = noiseless). Each uploaded
    /// sample on a device with `r` local clusters receives additive Gaussian
    /// noise of **total** variance `delta / sqrt(r)`, i.e. per-coordinate
    /// variance `delta / (n sqrt(r))`. (The paper's Fig. 7 states the
    /// variance as `delta / sqrt(r^(z))` without fixing the normalization;
    /// the per-sample reading is the one consistent with the robustness
    /// range the figure shows — per-coordinate noise of that variance would
    /// swamp the unit-norm samples at tiny `delta`.)
    pub noise_delta: f64,
}

impl Default for ChannelConfig {
    fn default() -> Self {
        Self {
            bits_per_scalar: 64,
            noise_delta: 0.0,
        }
    }
}

/// Running communication-cost meter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Total uplink payload bits (quantized model, per Section IV-E).
    pub uplink_bits: u64,
    /// Total downlink payload bits.
    pub downlink_bits: u64,
    /// Number of uplink messages (one per device in one-shot schemes).
    pub uplink_messages: u64,
    /// Number of downlink messages.
    pub downlink_messages: u64,
}

impl CommStats {
    /// Total bits both ways.
    pub fn total_bits(&self) -> u64 {
        self.uplink_bits + self.downlink_bits
    }

    /// Merges another meter into this one.
    pub fn merge(&mut self, other: &CommStats) {
        self.uplink_bits += other.uplink_bits;
        self.downlink_bits += other.downlink_bits;
        self.uplink_messages += other.uplink_messages;
        self.downlink_messages += other.downlink_messages;
    }
}

/// An uplink message: one device's sample matrix, encoded column-major.
#[derive(Debug, Clone, PartialEq)]
pub struct UplinkMessage {
    /// Ambient dimension `n`.
    pub dim: usize,
    /// Samples as columns.
    pub samples: Matrix,
}

impl UplinkMessage {
    /// Serializes to the wire format (length-prefixed little-endian f64s).
    /// The encoded payload is what the byte-level tests measure; the *bit*
    /// accounting uses the configured quantization width.
    pub fn encode(&self) -> Bytes {
        let (n, r) = self.samples.shape();
        let mut buf = BytesMut::with_capacity(16 + 8 * n * r);
        buf.put_u64_le(n as u64);
        buf.put_u64_le(r as u64);
        for v in self.samples.as_slice() {
            buf.put_f64_le(*v);
        }
        buf.freeze()
    }

    /// Decodes a wire payload. Returns `None` on malformed input.
    pub fn decode(mut bytes: Bytes) -> Option<Self> {
        if bytes.remaining() < 16 {
            return None;
        }
        let n = bytes.get_u64_le() as usize;
        let r = bytes.get_u64_le() as usize;
        // A 0-row header needs no data after it, so nothing would bound
        // its sample count. An empty device sends `dim x 0` instead.
        if n == 0 && r > 0 {
            return None;
        }
        let need = n.checked_mul(r)?.checked_mul(8)?;
        if bytes.remaining() != need {
            return None;
        }
        let mut data = Vec::with_capacity(n * r);
        for _ in 0..n * r {
            data.push(bytes.get_f64_le());
        }
        let samples = Matrix::from_col_major(n, r, data).ok()?;
        Some(Self { dim: n, samples })
    }
}

/// A downlink message: the global cluster assignments of one device's
/// samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DownlinkMessage {
    /// Assignment `tau` per uploaded sample, in upload order.
    pub assignments: Vec<u32>,
}

impl DownlinkMessage {
    /// Serializes to the wire format (length-prefixed little-endian u32s).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(8 + 4 * self.assignments.len());
        buf.put_u64_le(self.assignments.len() as u64);
        for &a in &self.assignments {
            buf.put_u32_le(a);
        }
        buf.freeze()
    }

    /// Decodes a wire payload. Returns `None` on malformed input.
    pub fn decode(mut bytes: Bytes) -> Option<Self> {
        if bytes.remaining() < 8 {
            return None;
        }
        let n = bytes.get_u64_le() as usize;
        if bytes.remaining() != n.checked_mul(4)? {
            return None;
        }
        let assignments = (0..n).map(|_| bytes.get_u32_le()).collect();
        Some(Self { assignments })
    }
}

/// Applies the channel to one device's samples: quantize to
/// `bits_per_scalar`, then add Gaussian noise of variance
/// `delta / sqrt(r)`, and account the uplink cost.
pub fn transmit_uplink<R: Rng + ?Sized>(
    cfg: &ChannelConfig,
    samples: &Matrix,
    stats: &mut CommStats,
    rng: &mut R,
) -> Matrix {
    let (n, r) = samples.shape();
    stats.uplink_bits += (n as u64) * (r as u64) * cfg.bits_per_scalar as u64;
    stats.uplink_messages += 1;
    let mut out = samples.clone();
    if cfg.bits_per_scalar < 64 {
        quantize_in_place(&mut out, cfg.bits_per_scalar);
    }
    if cfg.noise_delta > 0.0 && r > 0 && n > 0 {
        let std = (cfg.noise_delta / (n as f64 * (r as f64).sqrt())).sqrt();
        for v in out.as_mut_slice() {
            *v += std * standard_normal(rng);
        }
    }
    out
}

/// Accounts the downlink delivery of `r` cluster assignments out of `l`
/// global clusters (`ceil(log2 l)` bits each; at least 1).
pub fn account_downlink(stats: &mut CommStats, r: usize, l: usize) {
    let bits_per_label = (usize::BITS - (l.max(2) - 1).leading_zeros()).max(1) as u64;
    stats.downlink_bits += r as u64 * bits_per_label;
    stats.downlink_messages += 1;
}

/// Uniform mid-rise quantization of samples known to lie in `[-1, 1]`
/// (Fed-SC samples are unit vectors, so every coordinate does).
fn quantize_in_place(m: &mut Matrix, bits: u32) {
    let levels = (1u64 << bits.min(32)) as f64;
    let step = 2.0 / levels;
    for v in m.as_mut_slice() {
        let clamped = v.clamp(-1.0, 1.0);
        *v = ((clamped + 1.0) / step).floor().min(levels - 1.0) * step - 1.0 + step / 2.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_matrix() -> Matrix {
        Matrix::from_rows(&[&[0.6, -0.8], &[0.8, 0.6]]).unwrap()
    }

    #[test]
    fn encode_decode_round_trip() {
        let msg = UplinkMessage {
            dim: 2,
            samples: sample_matrix(),
        };
        let bytes = msg.encode();
        let back = UplinkMessage::decode(bytes).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn decode_rejects_malformed() {
        assert!(UplinkMessage::decode(Bytes::from_static(&[1, 2, 3])).is_none());
        // Header says 2x2 but payload is short.
        let msg = UplinkMessage {
            dim: 2,
            samples: sample_matrix(),
        };
        let mut bytes = msg.encode().to_vec();
        bytes.pop();
        assert!(UplinkMessage::decode(Bytes::from(bytes)).is_none());
    }

    #[test]
    fn decode_rejects_zero_rows_claiming_samples() {
        // A 0-row header needs no data bytes, so the sample count it
        // declares would otherwise go unchecked.
        let mut header = BytesMut::new();
        header.put_u64_le(0);
        header.put_u64_le(1 << 40);
        assert!(UplinkMessage::decode(header.freeze()).is_none());
        // An empty device's `dim x 0` upload still decodes.
        let empty = UplinkMessage {
            dim: 20,
            samples: Matrix::zeros(20, 0),
        };
        assert_eq!(UplinkMessage::decode(empty.encode()).unwrap(), empty);
    }

    #[test]
    fn downlink_encode_decode_round_trip() {
        let msg = DownlinkMessage {
            assignments: vec![0, 3, 17, 2],
        };
        assert_eq!(DownlinkMessage::decode(msg.encode()).unwrap(), msg);
        let empty = DownlinkMessage {
            assignments: vec![],
        };
        assert_eq!(DownlinkMessage::decode(empty.encode()).unwrap(), empty);
        assert!(DownlinkMessage::decode(Bytes::from_static(&[1, 2])).is_none());
    }

    #[test]
    fn uplink_cost_matches_formula() {
        let cfg = ChannelConfig {
            bits_per_scalar: 32,
            noise_delta: 0.0,
        };
        let mut stats = CommStats::default();
        let mut rng = StdRng::seed_from_u64(1);
        let samples = Matrix::zeros(20, 3); // n = 20, r = 3
        transmit_uplink(&cfg, &samples, &mut stats, &mut rng);
        assert_eq!(stats.uplink_bits, 20 * 3 * 32);
        assert_eq!(stats.uplink_messages, 1);
    }

    #[test]
    fn downlink_cost_matches_formula() {
        let mut stats = CommStats::default();
        account_downlink(&mut stats, 3, 20); // ceil(log2 20) = 5
        assert_eq!(stats.downlink_bits, 15);
        account_downlink(&mut stats, 2, 2); // 1 bit per label
        assert_eq!(stats.downlink_bits, 17);
        assert_eq!(stats.downlink_messages, 2);
    }

    #[test]
    fn noiseless_lossless_channel_is_identity() {
        let cfg = ChannelConfig::default();
        let mut stats = CommStats::default();
        let mut rng = StdRng::seed_from_u64(2);
        let samples = sample_matrix();
        let out = transmit_uplink(&cfg, &samples, &mut stats, &mut rng);
        assert_eq!(out, samples);
    }

    #[test]
    fn noise_perturbs_with_expected_scale() {
        let cfg = ChannelConfig {
            bits_per_scalar: 64,
            noise_delta: 0.04,
        };
        let mut stats = CommStats::default();
        let mut rng = StdRng::seed_from_u64(3);
        // n = 2000, r = 4 -> per-coordinate var = 0.04 / (2000 * 2) = 1e-5.
        let samples = Matrix::zeros(2000, 4);
        let out = transmit_uplink(&cfg, &samples, &mut stats, &mut rng);
        let var: f64 =
            out.as_slice().iter().map(|v| v * v).sum::<f64>() / out.as_slice().len() as f64;
        assert!((var - 1e-5).abs() < 1e-6, "observed variance {var}");
    }

    #[test]
    fn quantization_error_bounded_by_step() {
        let cfg = ChannelConfig {
            bits_per_scalar: 8,
            noise_delta: 0.0,
        };
        let mut stats = CommStats::default();
        let mut rng = StdRng::seed_from_u64(4);
        let samples = sample_matrix();
        let out = transmit_uplink(&cfg, &samples, &mut stats, &mut rng);
        let step = 2.0 / 256.0;
        for (a, b) in out.as_slice().iter().zip(samples.as_slice()) {
            assert!((a - b).abs() <= step, "{a} vs {b}");
        }
    }

    #[test]
    fn stats_merge() {
        let mut a = CommStats {
            uplink_bits: 10,
            downlink_bits: 5,
            uplink_messages: 1,
            downlink_messages: 1,
        };
        let b = CommStats {
            uplink_bits: 7,
            downlink_bits: 3,
            uplink_messages: 2,
            downlink_messages: 2,
        };
        a.merge(&b);
        assert_eq!(a.total_bits(), 25);
        assert_eq!(a.uplink_messages, 3);
    }
}
