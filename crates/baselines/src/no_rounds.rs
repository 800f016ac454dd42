//! The per-message-beacon ("no rounds") design of Eq. 20.

use ttw_timing::{energy, GlossyConstants, NetworkParams};

/// A design in which every message transmission is preceded by its own beacon,
/// i.e. messages are not grouped into rounds.
///
/// This is the energy baseline of Fig. 7: serving `B` messages costs
/// `B · (T_slot(L_beacon) + T_slot(l))` instead of
/// `T_slot(L_beacon) + B · T_slot(l)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoRoundsDesign {
    /// Radio constants (Table I).
    pub constants: GlossyConstants,
    /// Network parameters (diameter `H`, retransmissions `N`).
    pub network: NetworkParams,
}

impl NoRoundsDesign {
    /// Creates the baseline for the given radio constants and network.
    pub fn new(constants: GlossyConstants, network: NetworkParams) -> Self {
        NoRoundsDesign { constants, network }
    }

    /// The paper's evaluation setting: Table I constants, `H = 4`, `N = 2`.
    pub fn paper_setting() -> Self {
        Self::new(
            GlossyConstants::table1(),
            NetworkParams::with_paper_retransmissions(4),
        )
    }

    /// Radio-on time to serve `messages` messages of `payload` bytes.
    pub fn radio_on_time(&self, messages: usize, payload: usize) -> f64 {
        energy::radio_on_without_rounds(&self.constants, &self.network, messages, payload)
    }

    /// Radio-on time of the TTW round serving the same messages.
    pub fn ttw_radio_on_time(&self, messages: usize, payload: usize) -> f64 {
        energy::radio_on_with_rounds(&self.constants, &self.network, messages, payload)
    }

    /// Relative radio-on-time saving of TTW rounds over this baseline (Fig. 7).
    pub fn ttw_saving(&self, messages: usize, payload: usize) -> f64 {
        energy::relative_saving(&self.constants, &self.network, messages, payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_always_costs_at_least_as_much_radio_on_time() {
        let b = NoRoundsDesign::paper_setting();
        for messages in 1..12 {
            for payload in [8, 16, 64] {
                assert!(
                    b.radio_on_time(messages, payload) + 1e-15
                        >= b.ttw_radio_on_time(messages, payload)
                );
            }
        }
    }

    #[test]
    fn paper_anchor_five_slots_ten_bytes() {
        let b = NoRoundsDesign::paper_setting();
        let saving = b.ttw_saving(5, 10);
        assert!(saving > 0.30 && saving < 0.40, "saving = {saving}");
    }

    #[test]
    fn single_message_has_no_saving() {
        let b = NoRoundsDesign::paper_setting();
        assert!(b.ttw_saving(1, 10).abs() < 1e-12);
    }
}
