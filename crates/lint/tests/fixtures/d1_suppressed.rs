pub struct Cache {
    // cni-lint: allow(nondet-map) -- keyed lookups only: the map is never iterated, so its order cannot leak
    map: std::collections::HashMap<u64, u32>,
}

impl Cache {
    pub fn get(&self, k: u64) -> Option<u32> {
        self.map.get(&k).copied()
    }
}
