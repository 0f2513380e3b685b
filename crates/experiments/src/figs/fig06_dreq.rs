//! Figure 6 — data requests entering the memory system, normalized to
//! `1bDV`.

use crate::ExpOpts;

/// Regenerates Figure 6 at `opts`' scale.
pub fn run(opts: &ExpOpts) {
    super::requests_over_1bdv(opts, 6, "data requests", "sys.mem.data_reqs", "fig06_dreq");
}
