//! The temporal attribute type of the prototype.
//!
//! The paper represents a temporal attribute as "a 32 bit integer with a
//! resolution of one second"; it "has a distinct type, so that input and
//! output can be done in human readable form by automatically converting to
//! and from the internal representation. Various formats of date and time are
//! accepted for input, and resolutions ranging from a second to a year are
//! selectable for output."
//!
//! [`TimeVal`] is exactly that: an unsigned 32-bit count of seconds since
//! 1970-01-01 00:00:00 UTC, with [`TimeVal::FOREVER`] (`u32::MAX`) denoting
//! the open end of a still-current version, and [`TimeVal::BEGINNING`] (zero)
//! the earliest representable instant. Calendar math is implemented from
//! first principles (proleptic Gregorian, no leap seconds — same model as the
//! original Unix `time_t` the prototype inherited from Ingres).

use crate::error::{Error, Result};
use std::fmt;

/// Seconds per minute/hour/day.
pub const SECS_PER_MINUTE: u32 = 60;
/// Seconds per hour.
pub const SECS_PER_HOUR: u32 = 3_600;
/// Seconds per day.
pub const SECS_PER_DAY: u32 = 86_400;

/// An instant in time with one-second resolution.
///
/// Ordered chronologically; `FOREVER` sorts after every real instant, which
/// is what makes the "current version" predicate (`stop == FOREVER`, or more
/// generally `start <= t && t < stop`) a plain integer comparison.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimeVal(pub u32);

/// A broken-down civil date/time in UTC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Civil {
    /// Full year, e.g. `1980`.
    pub year: i32,
    /// Month, `1..=12`.
    pub month: u32,
    /// Day of month, `1..=31`.
    pub day: u32,
    /// Hour, `0..=23`.
    pub hour: u32,
    /// Minute, `0..=59`.
    pub minute: u32,
    /// Second, `0..=59`.
    pub second: u32,
}

/// Output resolution for formatting a [`TimeVal`].
///
/// The prototype lets the user select any resolution from a second to a
/// year; coarser resolutions simply omit the finer fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Granularity {
    /// `08:00:30 1/1/1980`
    #[default]
    Second,
    /// `08:00 1/1/1980`
    Minute,
    /// `08:00 1/1/1980` (minutes shown as `:00`)
    Hour,
    /// `1/1/1980`
    Day,
    /// `Jan 1980`
    Month,
    /// `1980`
    Year,
}

const MONTH_NAMES: [&str; 12] = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct",
    "Nov", "Dec",
];

/// Days from 1970-01-01 to `year-month-day` in the proleptic Gregorian
/// calendar. Howard Hinnant's `days_from_civil` algorithm.
fn days_from_civil(year: i32, month: u32, day: u32) -> i64 {
    let y = if month <= 2 { year - 1 } else { year } as i64;
    let m = month as i64;
    let d = day as i64;
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Inverse of [`days_from_civil`]: civil date for a day count since
/// 1970-01-01.
fn civil_from_days(z: i64) -> (i32, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y } as i32, m, d)
}

/// True iff `year` is a Gregorian leap year.
pub fn is_leap_year(year: i32) -> bool {
    year % 4 == 0 && (year % 100 != 0 || year % 400 == 0)
}

/// Number of days in `month` of `year`.
pub fn days_in_month(year: i32, month: u32) -> u32 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap_year(year) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

impl Civil {
    /// Validate field ranges.
    fn check(&self) -> Result<()> {
        if self.month == 0 || self.month > 12 {
            return Err(Error::BadTime(format!(
                "month {} out of range",
                self.month
            )));
        }
        if self.day == 0 || self.day > days_in_month(self.year, self.month)
        {
            return Err(Error::BadTime(format!(
                "day {} out of range for {}/{}",
                self.day, self.month, self.year
            )));
        }
        if self.hour > 23 || self.minute > 59 || self.second > 59 {
            return Err(Error::BadTime(format!(
                "time of day {:02}:{:02}:{:02} out of range",
                self.hour, self.minute, self.second
            )));
        }
        Ok(())
    }
}

impl TimeVal {
    /// The earliest representable instant, 1970-01-01 00:00:00 UTC.
    pub const BEGINNING: TimeVal = TimeVal(0);
    /// The open end of time: a version with `stop == FOREVER` is current.
    pub const FOREVER: TimeVal = TimeVal(u32::MAX);

    /// Construct from a raw second count.
    pub const fn from_secs(secs: u32) -> Self {
        TimeVal(secs)
    }

    /// The raw second count.
    pub const fn as_secs(self) -> u32 {
        self.0
    }

    /// True iff this is the distinguished `FOREVER` value.
    pub const fn is_forever(self) -> bool {
        self.0 == u32::MAX
    }

    /// Construct from civil fields; errors if any field is out of range or
    /// the instant is not representable in 32 bits.
    pub fn from_civil(c: Civil) -> Result<Self> {
        c.check()?;
        let days = days_from_civil(c.year, c.month, c.day);
        let secs = days * SECS_PER_DAY as i64
            + (c.hour * SECS_PER_HOUR
                + c.minute * SECS_PER_MINUTE
                + c.second) as i64;
        if !(0..u32::MAX as i64).contains(&secs) {
            return Err(Error::BadTime(format!(
                "{}-{:02}-{:02} is outside the representable range",
                c.year, c.month, c.day
            )));
        }
        Ok(TimeVal(secs as u32))
    }

    /// Convenience constructor from `(y, m, d, hh, mm, ss)`.
    pub fn from_ymd_hms(
        year: i32,
        month: u32,
        day: u32,
        hour: u32,
        minute: u32,
        second: u32,
    ) -> Result<Self> {
        Self::from_civil(Civil {
            year,
            month,
            day,
            hour,
            minute,
            second,
        })
    }

    /// Midnight at the start of the given date.
    pub fn from_ymd(year: i32, month: u32, day: u32) -> Result<Self> {
        Self::from_ymd_hms(year, month, day, 0, 0, 0)
    }

    /// Break this instant into civil fields. `FOREVER` has no civil form and
    /// is reported as the last representable second.
    pub fn to_civil(self) -> Civil {
        let days = (self.0 / SECS_PER_DAY) as i64;
        let rem = self.0 % SECS_PER_DAY;
        let (year, month, day) = civil_from_days(days);
        Civil {
            year,
            month,
            day,
            hour: rem / SECS_PER_HOUR,
            minute: (rem % SECS_PER_HOUR) / SECS_PER_MINUTE,
            second: rem % SECS_PER_MINUTE,
        }
    }

    /// Parse a date/time literal. Accepted formats (all the ones the
    /// prototype's examples use, plus ISO dates):
    ///
    /// * `"now"` is **not** accepted here — "now" is resolved against the
    ///   transaction clock by the binder, which knows the statement's
    ///   evaluation time. Use [`crate::clock::Clock`].
    /// * `"forever"` / `"infinity"` → [`TimeVal::FOREVER`]
    /// * `"beginning"` / `"epoch"` → [`TimeVal::BEGINNING`]
    /// * `"1981"` → 1981-01-01 00:00:00
    /// * `"1/1/80"`, `"01/15/1980"` → month/day/year, midnight
    /// * `"1980-01-15"` → ISO year-month-day, midnight
    /// * `"08:00 1/1/80"`, `"4:00 1/1/80"`, `"08:00:30 1/1/80"` — time of
    ///   day, then date (the paper's own literal syntax)
    /// * `"1/1/80 08:00"`, `"1980-01-15 08:00:30"` — date, then time of day
    /// * `"Jan 15 1980"`, `"Jan 15, 1980 08:00"` — month-name forms
    ///
    /// Two-digit years are windowed: `70..=99` → 19xx, `00..=69` → 20xx.
    pub fn parse(s: &str) -> Result<Self> {
        let t = s.trim();
        if t.is_empty() {
            return Err(Error::BadTime("empty date/time literal".into()));
        }
        match t.to_ascii_lowercase().as_str() {
            "forever" | "infinity" => return Ok(TimeVal::FOREVER),
            "beginning" | "epoch" => return Ok(TimeVal::BEGINNING),
            "now" => return Err(Error::BadTime(
                "\"now\" must be resolved against the transaction clock"
                    .into(),
            )),
            _ => {}
        }
        // Split into whitespace-separated fields; each is a time-of-day,
        // a date, a bare year, a month name, or a day/year number following
        // a month name.
        let mut date: Option<(i32, u32, u32)> = None;
        let mut tod: Option<(u32, u32, u32)> = None;
        let mut month_name: Option<u32> = None;
        let mut pending: Vec<u32> = Vec::new(); // numbers after a month name

        for field in t.split_whitespace() {
            let field = field.trim_end_matches(',');
            if field.contains(':') {
                if tod.is_some() {
                    return Err(Error::BadTime(format!(
                        "two times of day in {s:?}"
                    )));
                }
                tod = Some(parse_time_of_day(field)?);
            } else if field.contains('/') {
                if date.is_some() || month_name.is_some() {
                    return Err(Error::BadTime(format!(
                        "two dates in {s:?}"
                    )));
                }
                date = Some(parse_slash_date(field)?);
            } else if field.contains('-') {
                if date.is_some() || month_name.is_some() {
                    return Err(Error::BadTime(format!(
                        "two dates in {s:?}"
                    )));
                }
                date = Some(parse_iso_date(field)?);
            } else if let Some(m) = parse_month_name(field) {
                if date.is_some() || month_name.is_some() {
                    return Err(Error::BadTime(format!(
                        "two dates in {s:?}"
                    )));
                }
                month_name = Some(m);
            } else if let Ok(n) = field.parse::<u32>() {
                pending.push(n);
            } else {
                return Err(Error::BadTime(format!(
                    "unrecognized field {field:?} in {s:?}"
                )));
            }
        }

        if let Some(m) = month_name {
            // "Jan 15 1980" or "Jan 1980"
            let (day, year) = match pending.as_slice() {
                [d, y] => (*d, window_year(*y)),
                [y] if *y >= 100 => (1, *y as i32),
                _ => {
                    return Err(Error::BadTime(format!(
                        "month-name date needs a year in {s:?}"
                    )))
                }
            };
            date = Some((year, m, day));
        } else if date.is_none() {
            // A bare year like "1981".
            match pending.as_slice() {
                [y] if *y >= 1970 => date = Some((*y as i32, 1, 1)),
                _ => {
                    return Err(Error::BadTime(format!(
                        "cannot interpret {s:?} as a date/time"
                    )))
                }
            }
        } else if !pending.is_empty() {
            return Err(Error::BadTime(format!(
                "stray number in date/time {s:?}"
            )));
        }

        let (year, month, day) = date
            .ok_or_else(|| Error::BadTime(format!("no date in {s:?}")))?;
        let (hour, minute, second) = tod.unwrap_or((0, 0, 0));
        TimeVal::from_civil(Civil {
            year,
            month,
            day,
            hour,
            minute,
            second,
        })
    }

    /// Format at the given output resolution.
    pub fn format(self, g: Granularity) -> String {
        if self.is_forever() {
            return "forever".into();
        }
        let c = self.to_civil();
        match g {
            Granularity::Second => format!(
                "{:02}:{:02}:{:02} {}/{}/{}",
                c.hour, c.minute, c.second, c.month, c.day, c.year
            ),
            Granularity::Minute | Granularity::Hour => format!(
                "{:02}:{:02} {}/{}/{}",
                c.hour, c.minute, c.month, c.day, c.year
            ),
            Granularity::Day => format!("{}/{}/{}", c.month, c.day, c.year),
            Granularity::Month => {
                format!(
                    "{} {}",
                    MONTH_NAMES[(c.month - 1) as usize],
                    c.year
                )
            }
            Granularity::Year => format!("{}", c.year),
        }
    }
}

/// Apply the two-digit-year window.
fn window_year(y: u32) -> i32 {
    match y {
        0..=69 => (2000 + y) as i32,
        70..=99 => (1900 + y) as i32,
        _ => y as i32,
    }
}

fn parse_time_of_day(s: &str) -> Result<(u32, u32, u32)> {
    let parts: Vec<&str> = s.split(':').collect();
    let bad = || Error::BadTime(format!("bad time of day {s:?}"));
    let num = |p: &str| p.parse::<u32>().map_err(|_| bad());
    match parts.as_slice() {
        [h, m] => Ok((num(h)?, num(m)?, 0)),
        [h, m, sec] => Ok((num(h)?, num(m)?, num(sec)?)),
        _ => Err(bad()),
    }
}

fn parse_slash_date(s: &str) -> Result<(i32, u32, u32)> {
    let parts: Vec<&str> = s.split('/').collect();
    let bad = || Error::BadTime(format!("bad date {s:?}"));
    if parts.len() != 3 {
        return Err(bad());
    }
    let m: u32 = parts[0].parse().map_err(|_| bad())?;
    let d: u32 = parts[1].parse().map_err(|_| bad())?;
    let y: u32 = parts[2].parse().map_err(|_| bad())?;
    Ok((window_year(y), m, d))
}

fn parse_iso_date(s: &str) -> Result<(i32, u32, u32)> {
    let parts: Vec<&str> = s.split('-').collect();
    let bad = || Error::BadTime(format!("bad ISO date {s:?}"));
    if parts.len() != 3 {
        return Err(bad());
    }
    let y: i32 = parts[0].parse().map_err(|_| bad())?;
    let m: u32 = parts[1].parse().map_err(|_| bad())?;
    let d: u32 = parts[2].parse().map_err(|_| bad())?;
    Ok((y, m, d))
}

fn parse_month_name(s: &str) -> Option<u32> {
    if s.len() < 3 {
        return None;
    }
    let lower = s.to_ascii_lowercase();
    MONTH_NAMES
        .iter()
        .position(|m| lower.starts_with(&m.to_ascii_lowercase()))
        .map(|i| i as u32 + 1)
}

impl fmt::Display for TimeVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.format(Granularity::Second))
    }
}

impl fmt::Debug for TimeVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_forever() {
            write!(f, "TimeVal(forever)")
        } else {
            write!(f, "TimeVal({} = {})", self.0, self)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_zero() {
        assert_eq!(TimeVal::from_ymd(1970, 1, 1).unwrap(), TimeVal(0));
    }

    #[test]
    fn known_instants() {
        // 1980-01-01 00:00:00 UTC == 315532800
        assert_eq!(
            TimeVal::from_ymd(1980, 1, 1).unwrap().as_secs(),
            315_532_800
        );
        // 1981-01-01 00:00:00 UTC == 347155200
        assert_eq!(
            TimeVal::from_ymd(1981, 1, 1).unwrap().as_secs(),
            347_155_200
        );
    }

    #[test]
    fn civil_roundtrip_on_leap_day() {
        let t = TimeVal::from_ymd_hms(1980, 2, 29, 12, 30, 45).unwrap();
        let c = t.to_civil();
        assert_eq!((c.year, c.month, c.day), (1980, 2, 29));
        assert_eq!((c.hour, c.minute, c.second), (12, 30, 45));
    }

    #[test]
    fn rejects_invalid_civil_fields() {
        assert!(TimeVal::from_ymd(1981, 2, 29).is_err());
        assert!(TimeVal::from_ymd(1980, 13, 1).is_err());
        assert!(TimeVal::from_ymd(1980, 0, 1).is_err());
        assert!(TimeVal::from_ymd_hms(1980, 1, 1, 24, 0, 0).is_err());
        assert!(TimeVal::from_ymd(1969, 12, 31).is_err());
    }

    #[test]
    fn parses_paper_literals() {
        // The literals that appear verbatim in the paper.
        assert_eq!(
            TimeVal::parse("08:00 1/1/80").unwrap(),
            TimeVal::from_ymd_hms(1980, 1, 1, 8, 0, 0).unwrap()
        );
        assert_eq!(
            TimeVal::parse("4:00 1/1/80").unwrap(),
            TimeVal::from_ymd_hms(1980, 1, 1, 4, 0, 0).unwrap()
        );
        assert_eq!(
            TimeVal::parse("1981").unwrap(),
            TimeVal::from_ymd(1981, 1, 1).unwrap()
        );
    }

    #[test]
    fn parses_other_formats() {
        let want = TimeVal::from_ymd_hms(1980, 1, 15, 8, 0, 30).unwrap();
        for s in [
            "08:00:30 1/15/80",
            "1/15/1980 08:00:30",
            "1980-01-15 08:00:30",
            "Jan 15 1980 08:00:30",
            "Jan 15, 1980 08:00:30",
        ] {
            assert_eq!(TimeVal::parse(s).unwrap(), want, "parsing {s:?}");
        }
        assert_eq!(
            TimeVal::parse("Feb 1980").unwrap(),
            TimeVal::from_ymd(1980, 2, 1).unwrap()
        );
        assert_eq!(TimeVal::parse("forever").unwrap(), TimeVal::FOREVER);
        assert_eq!(
            TimeVal::parse("beginning").unwrap(),
            TimeVal::BEGINNING
        );
    }

    #[test]
    fn rejects_garbage() {
        for s in ["", "not a date", "1/2", "12:00", "now", "1/1/80 2/2/81"]
        {
            assert!(TimeVal::parse(s).is_err(), "should reject {s:?}");
        }
    }

    #[test]
    fn two_digit_year_window() {
        assert_eq!(
            TimeVal::parse("1/1/99").unwrap(),
            TimeVal::from_ymd(1999, 1, 1).unwrap()
        );
        assert_eq!(
            TimeVal::parse("1/1/05").unwrap(),
            TimeVal::from_ymd(2005, 1, 1).unwrap()
        );
    }

    #[test]
    fn formats_at_all_granularities() {
        let t = TimeVal::from_ymd_hms(1980, 1, 1, 8, 0, 30).unwrap();
        assert_eq!(t.format(Granularity::Second), "08:00:30 1/1/1980");
        assert_eq!(t.format(Granularity::Minute), "08:00 1/1/1980");
        assert_eq!(t.format(Granularity::Hour), "08:00 1/1/1980");
        assert_eq!(t.format(Granularity::Day), "1/1/1980");
        assert_eq!(t.format(Granularity::Month), "Jan 1980");
        assert_eq!(t.format(Granularity::Year), "1980");
        assert_eq!(TimeVal::FOREVER.format(Granularity::Second), "forever");
    }

    #[test]
    fn forever_sorts_last() {
        let now = TimeVal::from_ymd(1980, 1, 1).unwrap();
        assert!(now < TimeVal::FOREVER);
        assert!(TimeVal::BEGINNING < now);
    }

    #[test]
    fn format_parse_roundtrip_at_second_granularity() {
        let t = TimeVal::from_ymd_hms(2024, 6, 15, 23, 59, 59).unwrap();
        let s = t.format(Granularity::Second);
        assert_eq!(TimeVal::parse(&s).unwrap(), t);
    }
}
