// Fixture (checked as crates/lsm/src/cache.rs): callees resolve by
// qualifier, not by bare name. `Server::drop` takes the table-map lock;
// a bare `drop(guard)` elsewhere is `std::mem::drop` and must not be
// charged with it, while `self.helper()` must reach `C::helper` (not the
// lock-free `Other::helper` declared after it).
struct C {
    inner: Mutex<u32>,
}

impl Drop for Server {
    fn drop(&mut self) {
        let t = self.db.tables.lock();
        use_it(t);
    }
}

fn bare_drop_is_not_server_drop(c: &C, m: &Metrics) {
    let cache_guard = c.inner.lock();
    let levels_guard = m.levels.lock();
    drop(levels_guard); // not flagged: no free fn `drop` in the workspace
    use_it(cache_guard);
}

impl C {
    fn out_of_order(&self) {
        let cache_guard = self.inner.lock();
        self.helper(); // flagged: C::helper takes tables under inner
        use_it(cache_guard);
    }

    fn helper(&self) {
        let t = self.db.tables.lock();
        use_it(t);
    }
}

impl Other {
    fn helper(&self) {}
}
