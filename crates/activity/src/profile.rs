//! Daily activity profiles (eq. 1 of the paper).
//!
//! A profile is the empirical distribution of a user's posts over the 24
//! hours of the (UTC) day: `P_u[h] = Σ_d a_u(d,h) / Σ_{d,h'} a_u(d,h')`,
//! where `a_u(d,h)` records whether user `u` posted in hour `h` of day `d`.
//! Timestamps on weekends and holidays are discarded, and a minimum number
//! of usable timestamps (30 in the paper) is required before a profile is
//! considered reliable.

use crate::calendar::{HolidayCalendar, UsFederalHolidays};
use crate::civil::CivilDateTime;
use std::error::Error;
use std::fmt;

/// Number of hourly bins in a profile.
pub const HOURS: usize = 24;

/// The paper's minimum number of usable timestamps for a reliable profile.
pub const DEFAULT_MIN_TIMESTAMPS: usize = 30;

/// Why a profile could not be built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileError {
    /// Fewer usable (non-weekend, non-holiday) timestamps than the policy
    /// minimum. Carries `(usable, required)`.
    TooFewTimestamps {
        /// Usable timestamps found after exclusions.
        usable: usize,
        /// Minimum required by the [`ProfilePolicy`].
        required: usize,
    },
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::TooFewTimestamps { usable, required } => write!(
                f,
                "too few usable timestamps to build a daily activity profile: {usable} < {required}"
            ),
        }
    }
}

impl Error for ProfileError {}

/// Policy controlling which timestamps count toward a profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfilePolicy {
    /// Minimum number of usable timestamps (paper: 30).
    pub min_timestamps: usize,
    /// Whether Saturdays/Sundays are excluded (paper: yes).
    pub exclude_weekends: bool,
    /// Whether holidays are excluded (paper: yes).
    pub exclude_holidays: bool,
    /// Offset in seconds added to every timestamp before conversion, used to
    /// re-align a forum clock to UTC (paper §IV-B: "we align the timestamps
    /// by adjusting all the profiles to UTC").
    pub utc_offset_secs: i64,
}

impl Default for ProfilePolicy {
    fn default() -> ProfilePolicy {
        ProfilePolicy {
            min_timestamps: DEFAULT_MIN_TIMESTAMPS,
            exclude_weekends: true,
            exclude_holidays: true,
            utc_offset_secs: 0,
        }
    }
}

impl ProfilePolicy {
    /// A permissive policy that keeps every timestamp and requires only one.
    /// Useful in tests and for exploratory analysis.
    pub fn keep_everything() -> ProfilePolicy {
        ProfilePolicy {
            min_timestamps: 1,
            exclude_weekends: false,
            exclude_holidays: false,
            utc_offset_secs: 0,
        }
    }

    /// Returns a copy with the given minimum timestamp count.
    pub fn with_min_timestamps(mut self, min: usize) -> ProfilePolicy {
        self.min_timestamps = min;
        self
    }
}

/// A normalized 24-bin daily activity profile.
///
/// Bin `h` holds the fraction of the user's usable posts that fell in UTC
/// hour `h`; the bins sum to 1 (up to floating-point error).
#[derive(Debug, Clone, PartialEq)]
pub struct DailyActivityProfile {
    shares: [f64; HOURS],
    counts: [u32; HOURS],
    total: u32,
}

impl DailyActivityProfile {
    /// Builds a profile directly from per-hour post counts.
    ///
    /// Returns `None` when every count is zero (an empty profile cannot be
    /// normalized).
    pub fn from_counts(counts: [u32; HOURS]) -> Option<DailyActivityProfile> {
        let total: u32 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let mut shares = [0.0; HOURS];
        for (share, &count) in shares.iter_mut().zip(counts.iter()) {
            *share = count as f64 / total as f64;
        }
        Some(DailyActivityProfile {
            shares,
            counts,
            total,
        })
    }

    /// The fraction of posts in UTC hour `h`.
    ///
    /// # Panics
    ///
    /// Panics if `h >= 24`.
    pub fn share(&self, h: usize) -> f64 {
        self.shares[h]
    }

    /// The raw post count in UTC hour `h`.
    ///
    /// # Panics
    ///
    /// Panics if `h >= 24`.
    pub fn count(&self, h: usize) -> u32 {
        self.counts[h]
    }

    /// Total number of usable timestamps behind this profile.
    pub fn total_posts(&self) -> u32 {
        self.total
    }

    /// The normalized shares as a slice, in hour order.
    pub fn shares(&self) -> &[f64; HOURS] {
        &self.shares
    }

    /// The hour with the most activity (ties broken toward earlier hours).
    pub fn peak_hour(&self) -> usize {
        let mut best = 0;
        for h in 1..HOURS {
            if self.shares[h] > self.shares[best] {
                best = h;
            }
        }
        best
    }

    /// Shannon entropy of the profile in bits; 0 for a single-hour poster,
    /// log2(24) ≈ 4.58 for a perfectly uniform one. Useful to gauge how
    /// identifying a profile is.
    pub fn entropy_bits(&self) -> f64 {
        self.shares
            .iter()
            .filter(|&&p| p > 0.0)
            .map(|&p| -p * p.log2())
            .sum()
    }

    /// Cosine similarity with another profile, in `[0, 1]` (profiles are
    /// non-negative).
    ///
    /// ```
    /// use darklight_activity::profile::DailyActivityProfile;
    /// let mut counts = [0u32; 24];
    /// counts[9] = 10;
    /// let a = DailyActivityProfile::from_counts(counts).unwrap();
    /// assert!((a.cosine(&a) - 1.0).abs() < 1e-12);
    /// ```
    pub fn cosine(&self, other: &DailyActivityProfile) -> f64 {
        let mut dot = 0.0;
        let mut na = 0.0;
        let mut nb = 0.0;
        for h in 0..HOURS {
            dot += self.shares[h] * other.shares[h];
            na += self.shares[h] * self.shares[h];
            nb += other.shares[h] * other.shares[h];
        }
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            dot / (na.sqrt() * nb.sqrt())
        }
    }

    /// Rotates the profile by `shift` hours (positive shifts move activity
    /// to later hours), e.g. to simulate or undo a timezone change.
    pub fn rotate(&self, shift: i32) -> DailyActivityProfile {
        let mut counts = [0u32; HOURS];
        for (h, &c) in self.counts.iter().enumerate() {
            let nh = (h as i32 + shift).rem_euclid(HOURS as i32) as usize;
            counts[nh] = c;
        }
        DailyActivityProfile::from_counts(counts).expect("rotation preserves total > 0")
    }

    /// Pools two profiles by summing their per-hour counts (e.g. to merge
    /// two confirmed aliases of the same person).
    pub fn merge(&self, other: &DailyActivityProfile) -> DailyActivityProfile {
        let mut counts = [0u32; HOURS];
        for ((c, &a), &b) in counts.iter_mut().zip(&self.counts).zip(&other.counts) {
            *c = a + b;
        }
        DailyActivityProfile::from_counts(counts).expect("merged total > 0")
    }
}

/// Builds [`DailyActivityProfile`]s from raw unix timestamps under a
/// [`ProfilePolicy`] and a holiday calendar.
#[derive(Debug, Clone)]
pub struct ProfileBuilder<C = UsFederalHolidays> {
    policy: ProfilePolicy,
    calendar: C,
}

impl ProfileBuilder<UsFederalHolidays> {
    /// Builder with the given policy and the US federal holiday calendar
    /// (the forums in the paper are anglophone).
    pub fn new(policy: ProfilePolicy) -> ProfileBuilder<UsFederalHolidays> {
        ProfileBuilder {
            policy,
            calendar: UsFederalHolidays::new(),
        }
    }
}

impl Default for ProfileBuilder<UsFederalHolidays> {
    fn default() -> Self {
        ProfileBuilder::new(ProfilePolicy::default())
    }
}

impl<C: HolidayCalendar> ProfileBuilder<C> {
    /// Builder with a custom holiday calendar.
    pub fn with_calendar(policy: ProfilePolicy, calendar: C) -> ProfileBuilder<C> {
        ProfileBuilder { policy, calendar }
    }

    /// The active policy.
    pub fn policy(&self) -> &ProfilePolicy {
        &self.policy
    }

    /// Number of timestamps that would survive the exclusion rules.
    pub fn usable_count(&self, timestamps: &[i64]) -> usize {
        timestamps.iter().filter(|&&t| self.is_usable(t)).count()
    }

    /// Whether a single timestamp survives the exclusion rules.
    pub fn is_usable(&self, unix: i64) -> bool {
        let dt = CivilDateTime::from_unix(unix + self.policy.utc_offset_secs);
        if self.policy.exclude_weekends && dt.date().weekday().is_weekend() {
            return false;
        }
        if self.policy.exclude_holidays && self.calendar.is_holiday(dt.date()) {
            return false;
        }
        true
    }

    /// Builds the profile.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::TooFewTimestamps`] when fewer than
    /// `policy.min_timestamps` timestamps survive the weekend/holiday
    /// exclusion.
    pub fn build(&self, timestamps: &[i64]) -> Result<DailyActivityProfile, ProfileError> {
        let mut counts = [0u32; HOURS];
        let mut usable = 0usize;
        for &t in timestamps {
            if !self.is_usable(t) {
                continue;
            }
            let dt = CivilDateTime::from_unix(t + self.policy.utc_offset_secs);
            counts[dt.hour() as usize] += 1;
            usable += 1;
        }
        if usable < self.policy.min_timestamps.max(1) {
            return Err(ProfileError::TooFewTimestamps {
                usable,
                required: self.policy.min_timestamps.max(1),
            });
        }
        Ok(DailyActivityProfile::from_counts(counts).expect("usable >= 1 implies total > 0"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calendar::NoHolidays;
    use crate::civil::CivilDateTime;

    /// Unix timestamp for the given civil time.
    fn at(y: i32, m: u8, d: u8, h: u8) -> i64 {
        CivilDateTime::new(y, m, d, h, 0, 0).unwrap().to_unix()
    }

    /// Weekday timestamps: every Wed of Feb/Mar 2017 at `hour`.
    fn wednesdays_at(hour: u8, n: usize) -> Vec<i64> {
        // 2017-02-01 is a Wednesday.
        (0..n)
            .map(|w| at(2017, 2, 1, hour) + w as i64 * 7 * 86_400)
            .collect()
    }

    #[test]
    fn basic_profile_shape() {
        let mut ts = wednesdays_at(9, 20);
        ts.extend(wednesdays_at(21, 20));
        let b = ProfileBuilder::new(ProfilePolicy::default());
        let p = b.build(&ts).unwrap();
        assert_eq!(p.total_posts(), 40);
        assert!((p.share(9) - 0.5).abs() < 1e-12);
        assert!((p.share(21) - 0.5).abs() < 1e-12);
        assert_eq!(p.share(3), 0.0);
        let sum: f64 = p.shares().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weekend_posts_excluded() {
        // 2017-02-04 is a Saturday.
        let mut ts = wednesdays_at(10, 30);
        let saturday = at(2017, 2, 4, 10);
        ts.push(saturday);
        let b = ProfileBuilder::new(ProfilePolicy::default());
        let p = b.build(&ts).unwrap();
        assert_eq!(p.total_posts(), 30);
        assert!(!b.is_usable(saturday));
    }

    #[test]
    fn holiday_posts_excluded() {
        // 2017-07-04 is a Tuesday but a US holiday.
        let mut ts = wednesdays_at(10, 30);
        ts.push(at(2017, 7, 4, 10));
        let b = ProfileBuilder::new(ProfilePolicy::default());
        assert_eq!(b.usable_count(&ts), 30);
        // With NoHolidays it becomes usable.
        let b2 = ProfileBuilder::with_calendar(ProfilePolicy::default(), NoHolidays);
        assert_eq!(b2.usable_count(&ts), 31);
    }

    #[test]
    fn min_timestamp_enforced() {
        let ts = wednesdays_at(10, 29);
        let b = ProfileBuilder::new(ProfilePolicy::default());
        let err = b.build(&ts).unwrap_err();
        assert_eq!(
            err,
            ProfileError::TooFewTimestamps {
                usable: 29,
                required: 30
            }
        );
        assert!(err.to_string().contains("29 < 30"));
    }

    #[test]
    fn zero_min_is_clamped_to_one() {
        let b = ProfileBuilder::new(ProfilePolicy::keep_everything().with_min_timestamps(0));
        assert!(b.build(&[]).is_err());
        assert!(b.build(&[at(2017, 2, 1, 0)]).is_ok());
    }

    #[test]
    fn utc_offset_shifts_bins() {
        let ts = wednesdays_at(23, 30);
        let b = ProfileBuilder::new(ProfilePolicy::default());
        let p = b.build(&ts).unwrap();
        assert_eq!(p.peak_hour(), 23);
        // A +2h forum clock correction rolls 23:00 into 01:00 the next day
        // (which is Thursday, still a weekday).
        let b2 = ProfileBuilder::new(ProfilePolicy {
            utc_offset_secs: 2 * 3600,
            ..ProfilePolicy::default()
        });
        let p2 = b2.build(&ts).unwrap();
        assert_eq!(p2.peak_hour(), 1);
    }

    #[test]
    fn cosine_properties() {
        let b = ProfileBuilder::new(ProfilePolicy::keep_everything());
        let p1 = b.build(&wednesdays_at(9, 10)).unwrap();
        let p2 = b.build(&wednesdays_at(21, 10)).unwrap();
        assert!((p1.cosine(&p1) - 1.0).abs() < 1e-12);
        assert_eq!(p1.cosine(&p2), 0.0);
        let mixed: Vec<i64> = wednesdays_at(9, 5)
            .into_iter()
            .chain(wednesdays_at(21, 5))
            .collect();
        let pm = b.build(&mixed).unwrap();
        let sim = p1.cosine(&pm);
        assert!(sim > 0.5 && sim < 1.0, "sim = {sim}");
    }

    #[test]
    fn entropy_extremes() {
        let b = ProfileBuilder::new(ProfilePolicy::keep_everything());
        let single = b.build(&wednesdays_at(9, 10)).unwrap();
        assert_eq!(single.entropy_bits(), 0.0);
        let mut counts = [1u32; HOURS];
        counts[0] = 1;
        let uniform = DailyActivityProfile::from_counts(counts).unwrap();
        assert!((uniform.entropy_bits() - (HOURS as f64).log2()).abs() < 1e-9);
    }

    #[test]
    fn rotate_wraps_and_preserves_mass() {
        let b = ProfileBuilder::new(ProfilePolicy::keep_everything());
        let p = b.build(&wednesdays_at(23, 10)).unwrap();
        let r = p.rotate(3);
        assert_eq!(r.peak_hour(), 2);
        assert_eq!(r.total_posts(), p.total_posts());
        let back = r.rotate(-3);
        assert_eq!(back, p);
    }

    #[test]
    fn merge_pools_counts() {
        let b = ProfileBuilder::new(ProfilePolicy::keep_everything());
        let p1 = b.build(&wednesdays_at(9, 10)).unwrap();
        let p2 = b.build(&wednesdays_at(21, 30)).unwrap();
        let m = p1.merge(&p2);
        assert_eq!(m.total_posts(), 40);
        assert_eq!(m.peak_hour(), 21);
    }

    #[test]
    fn from_counts_rejects_empty() {
        assert!(DailyActivityProfile::from_counts([0; HOURS]).is_none());
    }
}
