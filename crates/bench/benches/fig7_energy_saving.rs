//! Fig. 7 — relative radio-on-time saving of rounds versus per-message
//! beacons (H = 4, N = 2), as a function of the slots per round `B` and the
//! payload size.
//!
//! The paper's headline is a 33–40 % saving for 5-slot rounds with small
//! payloads; the program prints the full grid and the anchor points.

use ttw_baselines::NoRoundsDesign;

fn main() {
    eprintln!("\n=== Fig. 7: relative radio-on-time saving, H = 4, N = 2 ===");
    for row in ttw_bench::fig7_rows() {
        eprintln!("{row}");
    }
    let design = NoRoundsDesign::paper_setting();
    eprintln!(
        "paper anchor: B=5, l=10 B -> saving = {:.1}% (paper reports 33%); asymptote = {:.1}% (paper band 33-40%)\n",
        design.ttw_saving(5, 10) * 100.0,
        design.ttw_saving(10_000, 10) * 100.0
    );
}
