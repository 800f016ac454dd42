//! # ttw-timing — Glossy/LWB timing and energy models for TTW
//!
//! This crate implements the analytical performance model of the TTW paper
//! (Sec. V, Eq. 13–20, Fig. 5–7 and Table I). It answers two questions:
//!
//! 1. **How long is a communication round?** ([`round::round_length`],
//!    reproducing Fig. 6), which lower-bounds the end-to-end latency a TTW
//!    schedule can achieve.
//! 2. **How much radio-on time do rounds save** compared to sending every
//!    message with its own beacon? ([`energy::relative_saving`], reproducing
//!    Fig. 7 and the paper's 33–40 % headline).
//!
//! All durations are expressed in **seconds** as `f64`; payload and header
//! lengths in **bytes**. The [`constants::GlossyConstants`] default values are
//! the Table I constants of the publicly available Glossy implementation used
//! by the paper.
//!
//! ```
//! use ttw_timing::{GlossyConstants, NetworkParams};
//!
//! let constants = GlossyConstants::table1();
//! let network = NetworkParams::new(4, 2); // 4-hop network, N = 2 retransmissions
//! // Fig. 6: a 5-slot round with 10-byte payloads takes about 50 ms.
//! let t_r = ttw_timing::round::round_length(&constants, &network, 5, 10);
//! assert!(t_r > 0.045 && t_r < 0.055);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod constants;
pub mod energy;
pub mod flood;
pub mod round;
pub mod slot;
pub mod sweep;

pub use constants::GlossyConstants;
pub use round::NetworkParams;
