//! Command-line flags and observability exports shared by the process
//! binaries (`fedsc-server`, `fedsc-agg`, `fedsc-device`).
//!
//! A command line is `--name value` pairs and bare `--switch`es. The
//! binary's usage string declares them: a flag followed by a placeholder
//! or default (`--node N`, `[--devices 12]`) takes a value, a bare one
//! (`[--telemetry]`) is a switch. A flag the usage does not name, a flag
//! given twice and a value flag with no value are errors, each reported
//! with the usage: a mistyped `--qourum 3` fails instead of running with
//! no quorum.

use fedsc_obs::trace::SpanEvent;
use std::str::FromStr;

/// The flags of one command line, checked against a binary's usage.
#[derive(Debug)]
pub struct Flags {
    values: Vec<(&'static str, String)>,
    switches: Vec<&'static str>,
    usage: &'static str,
}

impl Flags {
    /// Parses `args` (without the program name) against the flags `usage`
    /// declares; `usage` also ends every error.
    pub fn parse(args: &[String], usage: &'static str) -> Result<Self, String> {
        let words: Vec<&'static str> = usage
            .split_whitespace()
            .map(|w| w.trim_matches(|c| c == '[' || c == ']'))
            .collect();
        let mut flags = Self {
            values: Vec::new(),
            switches: Vec::new(),
            usage,
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if flags.value(arg).is_some() || flags.switch(arg) {
                return Err(format!("{arg} given more than once\n{usage}"));
            }
            let Some(at) = words.iter().position(|&w| w.starts_with("--") && w == arg) else {
                return Err(format!("unknown flag {arg}\n{usage}"));
            };
            let name = words[at];
            if words.get(at + 1).is_some_and(|w| !w.starts_with("--")) {
                let value = it
                    .next()
                    .ok_or(format!("{name} requires a value\n{usage}"))?;
                flags.values.push((name, value.clone()));
            } else {
                flags.switches.push(name);
            }
        }
        Ok(flags)
    }

    /// The value given for `name`, if any.
    fn value(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// `true` when the switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.contains(&name)
    }

    /// The value of `name` parsed as `T`, or `None` when it was not given.
    pub fn optional<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("invalid value for {name}: {v}\n{}", self.usage))
            })
            .transpose()
    }

    /// The value of `name` parsed as `T`, or `default` when it was not
    /// given.
    pub fn parsed<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.optional(name)?.unwrap_or(default))
    }

    /// The value of `name` parsed as `T`; an error when it was not given.
    pub fn required<T: FromStr>(&self, name: &str) -> Result<T, String> {
        self.optional(name)?
            .ok_or(format!("{name} is required\n{}", self.usage))
    }
}

/// Stops tracing and writes this process's spans to `trace_out` (Chrome
/// `trace_event` JSON) and its metrics snapshot to `metrics_out` (flat
/// JSON), each when requested. Returns the spans, for a caller that also
/// merges them into a fleet trace.
pub fn write_observability(
    trace_out: Option<&str>,
    metrics_out: Option<&str>,
) -> Result<Vec<SpanEvent>, String> {
    let events = fedsc_obs::trace::uninstall();
    if let Some(path) = trace_out {
        let trace = fedsc_obs::export::chrome_trace_json(&events);
        std::fs::write(path, trace).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if let Some(path) = metrics_out {
        let metrics = fedsc_obs::export::metrics_json(&fedsc_obs::metrics::snapshot());
        std::fs::write(path, metrics).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    const USAGE: &str = "usage: test --devices 12 [--quorum N] [--telemetry] [--verbose]";

    fn parse(line: &str) -> Result<Flags, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        Flags::parse(&args, USAGE)
    }

    #[test]
    fn values_switches_and_defaults() {
        let f = parse("--devices 4 --telemetry").unwrap();
        assert_eq!(f.parsed("--devices", 12usize), Ok(4));
        assert_eq!(f.parsed("--quorum", 7usize), Ok(7));
        assert_eq!(f.optional::<usize>("--quorum"), Ok(None));
        assert!(f.switch("--telemetry"));
        assert!(!f.switch("--verbose"));
        let f = parse("--verbose --quorum 2").unwrap();
        assert!(f.switch("--verbose"));
        assert_eq!(f.required::<usize>("--quorum"), Ok(2));
        let f = parse("").unwrap();
        assert!(!f.switch("--telemetry"));
        assert_eq!(f.value("--devices"), None);
    }

    #[test]
    fn unknown_flags_are_rejected() {
        for line in [
            "--qourum 3",
            "--deadline 5000",
            "--telemetry extra",
            "usage:",
            "N",
        ] {
            let err = parse(line).unwrap_err();
            assert!(err.starts_with("unknown flag"), "{line}: {err}");
            assert!(err.ends_with(USAGE), "{line}: {err}");
        }
    }

    #[test]
    fn repeated_flags_are_rejected() {
        for line in ["--devices 4 --devices 5", "--telemetry --telemetry"] {
            let err = parse(line).unwrap_err();
            assert!(err.contains("given more than once"), "{line}: {err}");
        }
    }

    #[test]
    fn missing_and_malformed_values_are_errors() {
        assert!(parse("--devices").unwrap_err().contains("requires a value"));
        let f = parse("--devices many").unwrap();
        let err = f.parsed("--devices", 12usize).unwrap_err();
        assert!(err.starts_with("invalid value for --devices: many"));
        assert!(f
            .required::<usize>("--quorum")
            .unwrap_err()
            .contains("is required"));
    }
}
