//! Regenerate every table and figure of the paper's evaluation.
//!
//! Run all: `cargo bench -p cni-figures --bench figures`
//! Run some: `cargo bench -p cni-figures --bench figures -- fig04 table5`

fn main() {
    // Cargo's bench runner may pass `--bench`; everything else is a filter.
    let filters: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    cni_figures::run_filtered(&filters);
}
