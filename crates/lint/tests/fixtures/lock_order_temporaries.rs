// Fixture (checked as crates/lsm/src/cache.rs): a guard that a `let`
// initializer only reads through is a temporary and dies at the `;`, so
// re-taking the lock on the next line is fine. Borrowing through the
// guard extends it to the binding's scope, and that re-take is flagged.
struct C {
    inner: Mutex<u32>,
}

fn field_read_then_reacquire(c: &C) {
    let n = c.inner.lock().len;
    let b = c.inner.lock();
    use_both(n, b);
}

fn method_read_then_reacquire(c: &C) {
    let hit = c.inner
        .lock()
        .touch(&7)
        .cloned();
    let b = c.inner.lock();
    use_both(hit, b);
}

fn borrow_extends_the_guard(c: &C) {
    let r = &c.inner.lock().len;
    let b = c.inner.lock(); // flagged: `r` still borrows through the first guard
    use_both(r, b);
}
