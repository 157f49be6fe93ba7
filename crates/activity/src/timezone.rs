//! Timezone-shift inference between two activity profiles.
//!
//! Two aliases of the same person observed on forums with differently
//! configured clocks (or a user who moved timezones) produce activity
//! profiles that are circular rotations of each other. This module finds the
//! rotation maximizing cosine similarity — a lightweight re-implementation of
//! the core idea in La Morgia et al., "Time-zone geolocation of crowds in the
//! Dark Web" (ICDCS 2018), which the linking paper cites for its profile
//! construction.

use crate::profile::{DailyActivityProfile, HOURS};

/// The result of a shift search between two profiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShiftMatch {
    /// Hours to rotate the *second* profile so it best aligns with the
    /// first, in `-11..=12`.
    pub shift_hours: i32,
    /// Cosine similarity at the best shift.
    pub similarity: f64,
    /// Cosine similarity at shift 0, for comparison.
    pub unshifted_similarity: f64,
}

/// Finds the circular shift of `b` (in whole hours) that maximizes cosine
/// similarity with `a`.
///
/// Ties are broken toward the smallest absolute shift, so two identical
/// profiles report `shift_hours == 0`.
///
/// ```
/// use darklight_activity::profile::DailyActivityProfile;
/// use darklight_activity::timezone::infer_shift;
///
/// let mut counts = [0u32; 24];
/// counts[9] = 5;
/// counts[21] = 3;
/// let a = DailyActivityProfile::from_counts(counts).unwrap();
/// let b = a.rotate(6); // the same person, observed on a clock 6h ahead
/// let m = infer_shift(&a, &b);
/// assert_eq!(m.shift_hours, -6);
/// assert!((m.similarity - 1.0).abs() < 1e-12);
/// ```
pub fn infer_shift(a: &DailyActivityProfile, b: &DailyActivityProfile) -> ShiftMatch {
    let unshifted = a.cosine(b);
    let mut best_shift = 0i32;
    let mut best_sim = unshifted;
    for raw in 1..HOURS as i32 {
        // Visit shifts in order of increasing |shift|: 1, -1, 2, -2, ...
        let shift = if raw % 2 == 1 {
            (raw + 1) / 2
        } else {
            -raw / 2
        };
        let sim = a.cosine(&b.rotate(shift));
        if sim > best_sim + 1e-15 {
            best_sim = sim;
            best_shift = shift;
        }
    }
    // Normalize to -11..=12.
    let norm = ((best_shift + 11).rem_euclid(24)) - 11;
    ShiftMatch {
        shift_hours: norm,
        similarity: best_sim,
        unshifted_similarity: unshifted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(hours: &[(usize, u32)]) -> DailyActivityProfile {
        let mut counts = [0u32; HOURS];
        for &(h, c) in hours {
            counts[h] = c;
        }
        DailyActivityProfile::from_counts(counts).unwrap()
    }

    #[test]
    fn identical_profiles_need_no_shift() {
        let a = profile(&[(8, 4), (12, 2), (20, 6)]);
        let m = infer_shift(&a, &a);
        assert_eq!(m.shift_hours, 0);
        assert!((m.similarity - 1.0).abs() < 1e-12);
        assert_eq!(m.similarity, m.unshifted_similarity);
    }

    #[test]
    fn recovers_known_rotation() {
        let a = profile(&[(3, 1), (9, 5), (15, 2)]);
        for shift in [-8, -3, 1, 5, 11] {
            let b = a.rotate(shift);
            let m = infer_shift(&a, &b);
            assert_eq!(m.shift_hours, -shift, "shift={shift}");
            assert!((m.similarity - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn gain_positive_for_misaligned_profiles() {
        let a = profile(&[(9, 10), (10, 8)]);
        let b = a.rotate(7);
        let m = infer_shift(&a, &b);
        assert!(m.similarity - m.unshifted_similarity > 0.9);
    }

    #[test]
    fn shift_range_normalized() {
        let a = profile(&[(0, 10)]);
        let b = a.rotate(12); // 12 and -12 are the same rotation
        let m = infer_shift(&a, &b);
        assert_eq!(m.shift_hours, 12);
    }

    #[test]
    fn noisy_rotation_still_found() {
        let a = profile(&[(8, 20), (9, 30), (10, 20), (22, 5)]);
        let mut shifted = a.rotate(5);
        // Add noise: merge with a small uniform-ish blob.
        shifted = shifted.merge(&profile(&[(1, 2), (14, 2)]));
        let m = infer_shift(&a, &shifted);
        assert_eq!(m.shift_hours, -5);
        assert!(m.similarity > 0.9);
    }
}
