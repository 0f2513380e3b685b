//! Thin wrapper over [`bvl_experiments::figs::fig04_speedup`]; see that module for
//! the experiment itself. Shared flags: `--scale`, `--out`, `--jobs`,
//! `--persist-cache`, `--cache-dir`, and `--sampled` /
//! `--sample-period N` / `--sample-window N` for estimated figures via
//! sampled simulation (DESIGN.md §4.12).

fn main() {
    let opts = bvl_experiments::ExpOpts::from_args();
    bvl_experiments::figs::fig04_speedup::run(&opts);
}
