//! Host beacons.
//!
//! Every communication round starts with a beacon flooded by the host. As in
//! Sec. II.B of the paper, the beacon carries the current round id, the mode
//! id and the trigger bit `SB` used by the two-phase mode change. The paper's
//! 3-byte payload (`L_beacon` in Table I) is extended here with one CRC-8
//! checksum byte so that bit-corruption faults are *detected* and counted
//! instead of silently mis-parsed; the timing/energy model keeps accounting
//! with Table I's `L_beacon`, which preserves the paper's Fig. 6/7 anchors.

use std::fmt;

/// A beacon frame whose checksum did not match its body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BeaconDecodeError {
    /// Checksum recomputed from the received body bytes.
    pub expected: u8,
    /// Checksum byte actually carried by the frame.
    pub found: u8,
}

impl fmt::Display for BeaconDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "beacon checksum mismatch: expected {:#04x}, found {:#04x}",
            self.expected, self.found
        )
    }
}

impl std::error::Error for BeaconDecodeError {}

/// CRC-8 with polynomial 0x07 (CRC-8/SMBUS), the classic single-byte check
/// used on short sensor-network frames: it detects every single- and
/// double-bit error at this frame length.
fn crc8(data: &[u8]) -> u8 {
    let mut crc = 0u8;
    for &byte in data {
        crc ^= byte;
        for _ in 0..8 {
            crc = if crc & 0x80 != 0 {
                (crc << 1) ^ 0x07
            } else {
                crc << 1
            };
        }
    }
    crc
}

/// The content of a host beacon `b = {round id, mode id, trigger bit SB}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Beacon {
    /// Identifier of the round this beacon opens (unique within the mode's
    /// cyclic round sequence).
    pub round_id: u8,
    /// Identifier of the mode announced by the host. During the first phase of
    /// a mode change this is already the *new* mode id while the rounds still
    /// belong to the old mode.
    pub mode_id: u8,
    /// Trigger bit `SB`: when set, the announced mode starts right after this
    /// round.
    pub trigger: bool,
}

impl Beacon {
    /// Serializes the beacon to its checksummed 4-byte wire format:
    /// `[round_id, mode_id, trigger, crc8(body)]`.
    pub fn encode(&self) -> [u8; Self::WIRE_LENGTH] {
        let body = [self.round_id, self.mode_id, u8::from(self.trigger)];
        [body[0], body[1], body[2], crc8(&body)]
    }

    /// Parses a beacon from its checksummed wire format, rejecting frames
    /// whose CRC does not match. Any non-zero trigger byte under a valid CRC
    /// is interpreted as `true`.
    pub fn decode(bytes: [u8; Self::WIRE_LENGTH]) -> Result<Self, BeaconDecodeError> {
        let expected = crc8(&bytes[..3]);
        if bytes[3] != expected {
            return Err(BeaconDecodeError {
                expected,
                found: bytes[3],
            });
        }
        Ok(Beacon {
            round_id: bytes[0],
            mode_id: bytes[1],
            trigger: bytes[2] != 0,
        })
    }

    /// Length of the checksummed encoded beacon in bytes.
    pub const WIRE_LENGTH: usize = 4;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let b = Beacon {
            round_id: 7,
            mode_id: 2,
            trigger: true,
        };
        assert_eq!(Beacon::decode(b.encode()), Ok(b));
        assert_eq!(b.encode().len(), Beacon::WIRE_LENGTH);
    }

    #[test]
    fn round_trip_for_all_values() {
        // The whole input space is small enough to check exhaustively
        // (256 round ids × 256 mode ids × 2 trigger values).
        for round_id in 0..=u8::MAX {
            for mode_id in 0..=u8::MAX {
                for trigger in [false, true] {
                    let b = Beacon {
                        round_id,
                        mode_id,
                        trigger,
                    };
                    assert_eq!(Beacon::decode(b.encode()), Ok(b));
                }
            }
        }
        // Any non-zero trigger byte under a valid CRC decodes to `true`.
        for trigger_byte in 1..=u8::MAX {
            let body = [7, 2, trigger_byte];
            let decoded = Beacon::decode([body[0], body[1], body[2], crc8(&body)]);
            assert_eq!(decoded.map(|b| b.trigger), Ok(true));
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let b = Beacon {
            round_id: 0x5A,
            mode_id: 0x3C,
            trigger: true,
        };
        let wire = b.encode();
        for bit in 0..(Beacon::WIRE_LENGTH * 8) {
            let mut corrupted = wire;
            corrupted[bit / 8] ^= 1 << (bit % 8);
            assert!(
                Beacon::decode(corrupted).is_err(),
                "bit {bit} flip went undetected"
            );
        }
    }

    #[test]
    fn every_double_bit_flip_is_detected() {
        let wire = Beacon {
            round_id: 0,
            mode_id: 0,
            trigger: false,
        }
        .encode();
        let bits = Beacon::WIRE_LENGTH * 8;
        for a in 0..bits {
            for b in (a + 1)..bits {
                let mut corrupted = wire;
                corrupted[a / 8] ^= 1 << (a % 8);
                corrupted[b / 8] ^= 1 << (b % 8);
                assert!(
                    Beacon::decode(corrupted).is_err(),
                    "bits {a},{b} flip went undetected"
                );
            }
        }
    }

    #[test]
    fn decode_error_reports_both_checksums() {
        let mut wire = Beacon {
            round_id: 1,
            mode_id: 2,
            trigger: false,
        }
        .encode();
        let good = wire[3];
        wire[3] ^= 0xFF;
        let err = Beacon::decode(wire).unwrap_err();
        assert_eq!(err.expected, good);
        assert_eq!(err.found, good ^ 0xFF);
        assert!(err.to_string().contains("checksum mismatch"));
    }
}
