//! Energy model: radio-on time with and without rounds (Eq. 20, Fig. 7).

use crate::constants::GlossyConstants;
use crate::round::{self, NetworkParams};
use crate::slot;

/// Radio-on time to serve `messages` messages of `payload` bytes **using one
/// TTW round** (one beacon followed by `messages` data slots).
pub fn radio_on_with_rounds(
    constants: &GlossyConstants,
    network: &NetworkParams,
    messages: usize,
    payload: usize,
) -> f64 {
    round::round_radio_on_time(constants, network, messages, payload)
}

/// Radio-on time to serve `messages` messages of `payload` bytes **without
/// rounds**, i.e. each message transmission is preceded by its own beacon
/// (Eq. 20: `T_wo/r(l) = B · (T_slot(L_beacon) + T_slot(l))`, restricted to
/// its radio-on part).
pub fn radio_on_without_rounds(
    constants: &GlossyConstants,
    network: &NetworkParams,
    messages: usize,
    payload: usize,
) -> f64 {
    let beacon_on = slot::radio_on_time(
        constants,
        network.diameter,
        network.retransmissions,
        constants.l_beacon,
    );
    let data_on = slot::radio_on_time(
        constants,
        network.diameter,
        network.retransmissions,
        payload,
    );
    messages as f64 * (beacon_on + data_on)
}

/// Relative radio-on-time saving of using rounds,
/// `E = (T_on_wo/r − T_on_r) / T_on_wo/r` (Fig. 7).
///
/// Returns a value in `[0, 1)`; larger is better for TTW. For `messages == 0`
/// the saving is defined as `0`.
pub fn relative_saving(
    constants: &GlossyConstants,
    network: &NetworkParams,
    messages: usize,
    payload: usize,
) -> f64 {
    if messages == 0 {
        return 0.0;
    }
    let without = radio_on_without_rounds(constants, network, messages, payload);
    let with = radio_on_with_rounds(constants, network, messages, payload);
    (without - with) / without
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (GlossyConstants, NetworkParams) {
        (
            GlossyConstants::table1(),
            NetworkParams::with_paper_retransmissions(4),
        )
    }

    #[test]
    fn paper_headline_33_percent_for_5_slots_10_bytes() {
        // "5-slot rounds already induce 33% energy savings for 10 Bytes of payload."
        // Our model reproduces ≈ 32–33 %; the `energy_savings` example prints
        // the exact figure.
        let (c, net) = setup();
        let saving = relative_saving(&c, &net, 5, 10);
        assert!(
            (0.30..=0.40).contains(&saving),
            "saving = {saving:.3} expected ≈ 0.33"
        );
    }

    #[test]
    fn headline_band_33_to_40_percent_over_round_sizes() {
        // Abstract: "energy consumption [reduced] by 33-40%": for 10-byte
        // payloads the saving climbs from ≈33 % at B = 5 towards the
        // asymptotic ≈40 % for large rounds.
        let (c, net) = setup();
        for b in 5..=40 {
            let saving = relative_saving(&c, &net, b, 10);
            assert!(
                saving > 0.31 && saving < 0.41,
                "B = {b}: saving {saving:.3} outside the paper band"
            );
        }
        // Asymptote: beacon overhead fraction of a beacon+data pair (≈ 0.40).
        let asymptote = relative_saving(&c, &net, 10_000, 10);
        assert!((asymptote - 0.40).abs() < 0.01, "asymptote {asymptote:.3}");
    }

    #[test]
    fn saving_grows_with_number_of_slots() {
        let (c, net) = setup();
        let mut prev = 0.0;
        for b in 1..=10 {
            let s = relative_saving(&c, &net, b, 10);
            assert!(s >= prev, "saving must be non-decreasing in B");
            prev = s;
        }
    }

    #[test]
    fn saving_shrinks_with_payload_size() {
        // Fig. 7: "those savings become less significant as the payload size increases".
        let (c, net) = setup();
        let mut prev = 1.0;
        for payload in [8, 16, 32, 64, 128] {
            let s = relative_saving(&c, &net, 5, payload);
            assert!(s < prev, "saving must decrease with payload");
            prev = s;
        }
    }

    #[test]
    fn single_message_saving_is_zero() {
        // With one message per round, both designs send one beacon + one message.
        let (c, net) = setup();
        assert!(relative_saving(&c, &net, 1, 10).abs() < 1e-12);
    }

    #[test]
    fn zero_messages_defined_as_zero() {
        let (c, net) = setup();
        assert_eq!(relative_saving(&c, &net, 0, 10), 0.0);
    }

    #[test]
    fn with_rounds_never_worse_than_without() {
        let (c, net) = setup();
        for b in 1..12 {
            for payload in [8, 32, 128] {
                assert!(
                    radio_on_with_rounds(&c, &net, b, payload)
                        <= radio_on_without_rounds(&c, &net, b, payload) + 1e-15
                );
            }
        }
    }
}
