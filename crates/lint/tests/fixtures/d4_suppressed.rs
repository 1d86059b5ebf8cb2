pub fn encode(
    // cni-lint: allow(snap-nondet) -- collected then sorted: the hashed visit order cannot reach the snapshot bytes
    map: &std::collections::HashMap<u64, u64>,
) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = map.iter().map(|(k, v)| (*k, *v)).collect();
    out.sort_unstable();
    out
}
