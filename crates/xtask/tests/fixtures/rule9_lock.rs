fn f(s: &S) {
    let g = s.alpha.lock();
    let h = s.beta.lock();
    drop(h);
    drop(g);
}

fn g(s: &S) {
    let h = s.beta.lock();
    let g = s.alpha.lock();
    drop(g);
    drop(h);
}
