pub struct Node {
    slots: Vec<u64>,
}

impl Node {
    pub fn on_frame_rx(&mut self, seq: u64) {
        self.validate_seq(seq);
    }

    fn validate_seq(&mut self, seq: u64) {
        self.window_slot(seq);
    }

    fn window_slot(&mut self, seq: u64) -> u64 {
        *self.slots.get(seq as usize).unwrap()
    }
}
