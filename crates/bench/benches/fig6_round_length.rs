//! Fig. 6 — round length `T_r` as a function of the network diameter `H` and
//! the number of slots per round `B` (payload 10 B, N = 2).
//!
//! Prints the reproduced grid (milliseconds) and the paper's anchor point.

use ttw_timing::{round, GlossyConstants, NetworkParams};

fn main() {
    eprintln!("\n=== Fig. 6: round length T_r [ms], payload 10 B, N = 2 ===");
    for row in ttw_bench::fig6_rows() {
        eprintln!("{row}");
    }
    let constants = GlossyConstants::table1();
    let anchor = round::round_length(
        &constants,
        &NetworkParams::with_paper_retransmissions(4),
        5,
        10,
    );
    eprintln!(
        "paper anchor: H=4, B=5 -> T_r = {:.1} ms (paper reports ~50 ms)\n",
        anchor * 1e3
    );
}
