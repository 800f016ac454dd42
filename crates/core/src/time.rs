//! Time representation used by the system model.
//!
//! All *given* quantities of the model (periods, deadlines, worst-case
//! execution times, round length) are integer **microseconds** ([`Micros`]).
//! Quantities *computed* by the scheduler (task/message offsets, round start
//! times) are `f64` microseconds because the ILP works over continuous
//! variables, exactly as in the paper (Table II).

/// Integer microseconds.
pub type Micros = u64;

/// Converts whole milliseconds to [`Micros`].
pub const fn millis(ms: u64) -> Micros {
    ms * 1_000
}

/// Converts whole seconds to [`Micros`].
pub const fn seconds(s: u64) -> Micros {
    s * 1_000_000
}

/// Converts a duration in seconds (as used by `ttw-timing`) to [`Micros`],
/// rounding **up** so that derived schedules stay conservative.
pub fn micros_from_secs(seconds: f64) -> Micros {
    (seconds * 1e6).ceil() as Micros
}

/// Greatest common divisor.
pub fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Least common multiple; saturates at `u64::MAX` on overflow.
pub fn lcm(a: u64, b: u64) -> u64 {
    if a == 0 || b == 0 {
        return 0;
    }
    (a / gcd(a, b)).saturating_mul(b)
}

/// Least common multiple of an iterator of periods (used for hyperperiods).
///
/// Returns `0` for an empty iterator.
pub fn lcm_all<I: IntoIterator<Item = u64>>(values: I) -> u64 {
    values
        .into_iter()
        .fold(0, |acc, v| if acc == 0 { v } else { lcm(acc, v) })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions() {
        assert_eq!(millis(20), 20_000);
        assert_eq!(seconds(2), 2_000_000);
        assert_eq!(micros_from_secs(0.05), 50_000);
    }

    #[test]
    fn micros_from_secs_rounds_up() {
        assert_eq!(micros_from_secs(1.0000001e-6), 2);
        assert_eq!(micros_from_secs(0.0), 0);
    }

    #[test]
    fn gcd_lcm_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(0, 5), 0);
        assert_eq!(lcm_all([10, 20, 50]), 100);
        assert_eq!(lcm_all(std::iter::empty::<u64>()), 0);
    }

    #[test]
    fn lcm_saturates_instead_of_overflowing() {
        assert_eq!(lcm(u64::MAX, 2), u64::MAX);
    }
}
