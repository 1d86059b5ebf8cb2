use std::collections::BTreeMap;

pub struct FlowTable {
    flows: BTreeMap<u32, u64>,
}

impl FlowTable {
    pub fn lookup(&self, k: u32) -> Option<u64> {
        self.flows.get(&k).copied()
    }

    pub fn bind(&mut self, k: u32, v: u64) {
        self.flows.insert(k, v);
    }

    pub fn occupancy(&self) -> usize {
        self.flows.len()
    }
}
