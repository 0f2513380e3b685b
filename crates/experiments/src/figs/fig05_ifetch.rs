//! Figure 5 — instruction-fetch requests (L1I reads), normalized to
//! `1bDV`, for the data-parallel kernels and applications on the three
//! vector-capable comparison systems.

use crate::ExpOpts;

/// Regenerates Figure 5 at `opts`' scale.
pub fn run(opts: &ExpOpts) {
    super::requests_over_1bdv(
        opts,
        5,
        "ifetch requests",
        "sys.fetch_groups",
        "fig05_ifetch",
    );
}
