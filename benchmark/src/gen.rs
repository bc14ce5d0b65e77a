//! Seeded input generation: the schema of the paper's Figure 3, the
//! loader, and the value functions the answer checks re-derive.
//!
//! Everything here is a pure function of the seed. The program sees
//! only the statements; the harness keeps the functions, so it can say
//! what every row must contain without asking the program.

use crate::sut::{Embedded, Res};

/// SplitMix64: the benchmark's own generator (not the program's), so
/// the statement stream cannot drift with the product.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        // Multiply-shift; the bias at these ranges is below 2^-40.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    /// An independent stream for sub-generator `k`.
    pub fn fork(seed: u64, k: u64) -> Rng {
        Rng(mix(seed ^ mix(k.wrapping_add(0x51_7C_C1_B7_27_22_0A_95))))
    }
}

/// `n` draws from `shares` (`(item, parts)`), holding each item's count
/// to its exact share of `n` and leaving only the order to the seed: a
/// trial then has the same number of reads, appends and replaces under
/// every seed, so sample counts, log sizes and page counts per kind do
/// not wander with it.
pub fn exact_mix<T: Copy>(
    rng: &mut Rng,
    n: u64,
    shares: &[(T, u64)],
) -> Vec<T> {
    let parts: u64 = shares.iter().map(|(_, p)| p).sum();
    let mut out = Vec::with_capacity(n as usize);
    for (k, &(item, p)) in shares.iter().enumerate() {
        // The last item absorbs the rounding.
        let count = if k + 1 == shares.len() {
            n as usize - out.len()
        } else {
            (n * p / parts) as usize
        };
        out.extend(std::iter::repeat_n(item, count));
    }
    for i in (1..out.len()).rev() {
        out.swap(i, rng.below(i as u64 + 1) as usize);
    }
    out
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The two relations every workload uses: `h` hashed on `id`, `i` ISAM
/// on `id`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rel {
    H,
    I,
}

impl Rel {
    pub const BOTH: [Rel; 2] = [Rel::H, Rel::I];

    /// Range variable (and relation-name suffix).
    pub fn var(self) -> &'static str {
        match self {
            Rel::H => "h",
            Rel::I => "i",
        }
    }

    fn method(self) -> &'static str {
        match self {
            Rel::H => "hash",
            Rel::I => "isam",
        }
    }
}

/// The four database types of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Static,
    Rollback,
    Historical,
    Temporal,
}

impl Class {
    pub const ALL: [Class; 4] = [
        Class::Static,
        Class::Rollback,
        Class::Historical,
        Class::Temporal,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Static => "static",
            Class::Rollback => "rollback",
            Class::Historical => "historical",
            Class::Temporal => "temporal",
        }
    }

    pub fn has_transaction_time(self) -> bool {
        matches!(self, Class::Rollback | Class::Temporal)
    }
}

/// User bytes per row: `id`, `amount`, `seq` (i4 each) + `string` c96.
pub const USER_ROW_BYTES: u64 = 108;

/// Loader-derived `amount` of `(rel, id)`: a multiple of 100 below
/// 100 000, as in the paper's generator.
pub fn amount_of(seed: u64, rel: Rel, id: i64) -> i64 {
    let k = (id as u64) << 1 | (rel == Rel::I) as u64;
    (mix(seed ^ mix(k)) % 1000) as i64 * 100
}

/// Loader-derived `string` of `(rel, id)`: twelve lower-case letters.
pub fn string_of(seed: u64, rel: Rel, id: i64) -> String {
    let k = (id as u64) << 1 | (rel == Rel::I) as u64;
    let mut z = mix(!seed ^ mix(k));
    (0..12)
        .map(|_| {
            let c = (b'a' + (z % 26) as u8) as char;
            z /= 26;
            c
        })
        .collect()
}

pub fn rel_name(class: Class, rel: Rel) -> String {
    format!("{}_{}", class.name(), rel.var())
}

pub fn append_stmt(
    name: &str,
    id: i64,
    amount: i64,
    string: &str,
) -> String {
    format!(
        "append to {name} (id = {id}, amount = {amount}, seq = 0, \
         string = \"{string}\")"
    )
}

/// Create `class_h` / `class_i`, load ids `1..=n` through `append`,
/// reorganize to hash / ISAM at 100 % loading, and declare the `h` /
/// `i` range variables on the database itself.
///
/// `amount(rel, id)` supplies each row's amount (workloads plant probe
/// values through it). The fixed clock is stepped as the paper's loader
/// stamped its rows: ids 1 and 2 predate the rollback probes
/// (`"4:00 1/1/80"`, `"08:00 1/1/80"`), the rest follow from Jan 2,
/// 1980 at one minute per row, and updates start on March 1, 1980.
pub fn load(
    db: &mut Embedded,
    class: Class,
    n: i64,
    seed: u64,
    amount: impl Fn(Rel, i64) -> i64,
) -> Res<()> {
    for rel in Rel::BOTH {
        let name = rel_name(class, rel);
        db.execute(&format!(
            "create {} interval {name} \
             (id = i4, amount = i4, seq = i4, string = c96)",
            class.name()
        ))?;
        for id in 1..=n {
            // One tick (60 s) passes per statement: restart the clock
            // just before the instant the row should carry.
            match id {
                1 => db.set_clock((1980, 1, 1, 0, 59, 0)),
                2 => db.set_clock((1980, 1, 1, 2, 59, 0)),
                3 => db.set_clock((1980, 1, 2, 0, 0, 0)),
                _ => {}
            }
            db.execute(&append_stmt(
                &name,
                id,
                amount(rel, id),
                &string_of(seed, rel, id),
            ))?;
        }
        db.execute(&format!(
            "modify {name} to {} on id where fillfactor = 100",
            rel.method()
        ))?;
        db.execute(&format!("range of {} is {name}", rel.var()))?;
    }
    db.set_clock((1980, 3, 1, 0, 0, 0));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_a_pure_function_of_the_seed() {
        let draw = |seed| {
            let mut r = Rng::fork(seed, 0);
            (0..64).map(|_| r.below(1000)).collect::<Vec<_>>()
        };
        assert_eq!(draw(1986), draw(1986));
        assert_ne!(draw(1986), draw(2026));
        assert!(draw(7).iter().all(|&v| v < 1000));
        let mut r = Rng::fork(3, 0);
        for _ in 0..1000 {
            let v = r.range(-2, 2);
            assert!((-2..=2).contains(&v));
        }
    }

    #[test]
    fn exact_mix_fixes_the_counts_and_seeds_the_order() {
        let shares = [('r', 25), ('a', 25), ('w', 50)];
        let draw = |seed| exact_mix(&mut Rng::fork(seed, 0), 1001, &shares);
        let (a, b) = (draw(1), draw(2));
        for m in [&a, &b] {
            let count = |c| m.iter().filter(|&&x| x == c).count();
            assert_eq!(
                (count('r'), count('a'), count('w')),
                (250, 250, 501)
            );
        }
        assert_ne!(a, b);
        assert_eq!(a, draw(1));
    }

    #[test]
    fn loader_values_are_stable_and_well_formed() {
        assert_eq!(amount_of(1986, Rel::H, 5), amount_of(1986, Rel::H, 5));
        assert_ne!(
            (1..50).map(|i| amount_of(1, Rel::H, i)).collect::<Vec<_>>(),
            (1..50).map(|i| amount_of(2, Rel::H, i)).collect::<Vec<_>>()
        );
        for id in 1..200 {
            let a = amount_of(9, Rel::I, id);
            assert!(a % 100 == 0 && (0..100_000).contains(&a));
            let s = string_of(9, Rel::I, id);
            assert_eq!(s.len(), 12);
            assert!(s.bytes().all(|b| b.is_ascii_lowercase()));
        }
    }
}
