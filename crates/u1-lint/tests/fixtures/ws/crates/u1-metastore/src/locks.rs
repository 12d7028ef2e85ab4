//! Seeded U1L006/U1L007 fixtures: one lock-order inversion and one guard
//! held across stream I/O, next to consistently-ordered / early-released
//! twins that must stay silent.

pub struct Stripes {
    index: Mutex<u64>,
    journal: Mutex<u64>,
}

impl Stripes {
    pub fn fwd(&self) -> u64 {
        let g = self.index.lock();
        let h = self.journal.lock();
        *g + *h
    }

    pub fn rev(&self) -> u64 {
        let g = self.journal.lock();
        let h = self.index.lock();
        *g + *h
    }

    pub fn held_across_io(&self, out: &mut TcpWriter, bytes: &[u8]) -> bool {
        let g = self.index.lock();
        let ok = out.write_all(bytes).is_ok();
        ok && *g > 0
    }

    pub fn released_before_io(&self, out: &mut TcpWriter, bytes: &[u8]) -> bool {
        let n = self.index.lock().wrapping_add(1);
        out.write_all(bytes).is_ok() && n > 0
    }
}

pub struct Ordered {
    head: Mutex<u64>,
    tail: Mutex<u64>,
}

impl Ordered {
    pub fn one(&self) -> u64 {
        let g = self.head.lock();
        let h = self.tail.lock();
        *g + *h
    }

    pub fn two(&self) -> u64 {
        let g = self.head.lock();
        let h = self.tail.lock();
        *g - *h
    }

    /// Two calls of one helper under one guard: one `head -> tail` edge in
    /// the exported graph, not one per call site.
    pub fn twice(&self) -> u64 {
        let g = self.head.lock();
        self.bump();
        self.bump();
        *g
    }

    fn bump(&self) {
        *self.tail.lock() += 1;
    }
}
