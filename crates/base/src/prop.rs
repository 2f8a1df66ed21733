//! A property-test harness: [`check`] runs a property — a closure that
//! panics when it does not hold — on a fixed number of generated cases and,
//! when one fails, shrinks it before reporting.
//!
//! **Seeds.** Case `i` of a suite is generated from the seed
//! `splitmix64(hash(test name) + i)`: the same cases on every run and on
//! every machine, nothing to set. A failure prints its seed;
//! `generate(&mut Gen::from_seed(seed))` rebuilds the failing input.
//!
//! **The tape.** A generator is ordinary code drawing from a [`Gen`]. Every
//! draw is one *choice*: a `u64` counted from the low end of the requested
//! range (0 is the range's start, `false`, "no further element"). The
//! choices of a case are recorded on a tape, and replaying a tape through
//! the same generator rebuilds the value — or, after the tape was edited, a
//! nearby one: a choice too large for its range is clamped, a tape that ends
//! early continues with zeros.
//!
//! **Shrinking** edits the tape and replays: delete spans of choices (whole
//! elements of a [`Gen::vec`], which encodes "one more element?" before each
//! one), then lower single choices: to 0, else by halving the distance to a
//! value at which the property held. An edit is kept
//! when the property still fails and the replayed tape is shorter, or as
//! long and lexicographically smaller, so shrinking ends; it also ends after
//! [`MAX_SHRINK_REPLAYS`] replays. Because only the tape is shrunk, every
//! shrunk value is one the generator can produce — no invariant of the
//! input type is bypassed.
//!
//! **The report** names the suite, the case, its seed and the shrunk input
//! (`{:#?}`), then runs the property on it once more outside the catch, so
//! the test fails with the property's own assertion message. With
//! `cargo test -- --nocapture` every suite also prints how many cases it ran.

use crate::rng::{splitmix64, SplitMix64};
use std::cell::Cell;
use std::fmt::Debug;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Cases per suite unless the suite says otherwise.
pub const CASES: u32 = 256;

/// Upper bound on property runs spent shrinking one failure.
pub const MAX_SHRINK_REPLAYS: u32 = 1000;

/// Where a generator's choices come from.
enum Source {
    /// A fresh case: draw them from the seeded stream.
    Seeded(SplitMix64),
    /// A replay: read them from this tape.
    Tape(Vec<u64>),
}

/// What a generator draws from; records the choices it made.
pub struct Gen {
    source: Source,
    /// Choices made so far (for a replay: what it actually used, after
    /// clamping and zero-extension).
    used: Vec<u64>,
}

impl Gen {
    /// The generator state of the case with this seed.
    pub fn from_seed(seed: u64) -> Gen {
        Gen {
            source: Source::Seeded(SplitMix64::new(seed)),
            used: Vec::new(),
        }
    }

    fn replay(tape: &[u64]) -> Gen {
        Gen {
            source: Source::Tape(tape.to_vec()),
            used: Vec::new(),
        }
    }

    /// One choice in `0..=max`.
    fn choice(&mut self, max: u64) -> u64 {
        let c = match &mut self.source {
            Source::Seeded(rng) if max < u64::MAX => rng.next_u64() % (max + 1),
            Source::Seeded(rng) => rng.next_u64(),
            Source::Tape(tape) => tape.get(self.used.len()).map_or(0, |&c| c.min(max)),
        };
        self.used.push(c);
        c
    }

    /// Any `u64` (seeds).
    pub fn any_u64(&mut self) -> u64 {
        self.choice(u64::MAX)
    }

    pub fn u64(&mut self, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range {range:?}");
        range.start + self.choice(range.end - range.start - 1)
    }

    pub fn u32(&mut self, range: Range<u32>) -> u32 {
        self.u64(range.start.into()..range.end.into()) as u32
    }

    pub fn usize(&mut self, range: Range<usize>) -> usize {
        self.u64(range.start as u64..range.end as u64) as usize
    }

    pub fn i64(&mut self, range: Range<i64>) -> i64 {
        assert!(range.start < range.end, "empty range {range:?}");
        let span = range.end.wrapping_sub(range.start) as u64;
        range.start.wrapping_add(self.choice(span - 1) as i64)
    }

    /// A value of `[start, end)`, on a grid of 2⁵³ steps from `start`.
    pub fn f64(&mut self, range: Range<f64>) -> f64 {
        assert!(range.start < range.end, "empty range {range:?}");
        const STEPS: u64 = 1 << 53;
        let unit = self.choice(STEPS - 1) as f64 / STEPS as f64;
        let x = range.start + (range.end - range.start) * unit;
        // the sum can round up onto the excluded end
        if x < range.end {
            x
        } else {
            range.start
        }
    }

    pub fn bool(&mut self) -> bool {
        self.choice(1) == 1
    }

    /// One of `options`; shrinks toward the first.
    pub fn pick<T: Clone>(&mut self, options: &[T]) -> T {
        options[self.usize(0..options.len())].clone()
    }

    /// `len.start..len.end` items (`n..n + 1` for exactly `n`), lengths
    /// about equally likely. Past the minimum length each item is preceded
    /// by a "one more?" choice, so deleting the span of an item's choices
    /// from the tape deletes the item.
    pub fn vec<T>(&mut self, len: Range<usize>, mut item: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        assert!(len.start < len.end, "empty length range {len:?}");
        let mut items = Vec::new();
        while items.len() < len.end - 1 {
            if items.len() >= len.start {
                let room = (len.end - 1 - items.len()) as u64;
                if self.choice(room) == 0 {
                    break;
                }
            }
            items.push(item(self));
        }
        items
    }
}

thread_local! {
    /// Set while this thread is running a property whose panic `check`
    /// will catch: the panic hook stays silent for it.
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

/// Run `property(generate(tape))`; `Some(tape as used)` when it panicked.
fn falsifies<T>(
    mut gen: Gen,
    generate: &impl Fn(&mut Gen) -> T,
    property: &impl Fn(T),
) -> Option<Vec<u64>> {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET.with(Cell::get) {
                previous(info);
            }
        }));
    });
    QUIET.with(|q| q.set(true));
    let outcome = catch_unwind(AssertUnwindSafe(|| property(generate(&mut gen))));
    QUIET.with(|q| q.set(false));
    outcome.is_err().then_some(gen.used)
}

/// Shortlex: shorter first, then lexicographic.
fn simpler(a: &[u64], b: &[u64]) -> bool {
    (a.len(), a) < (b.len(), b)
}

/// The simplest failing tape found from `tape` within the replay budget,
/// and the replays spent.
fn shrink(mut tape: Vec<u64>, fails: impl Fn(&[u64]) -> Option<Vec<u64>>) -> (Vec<u64>, u32) {
    let mut replays = 0;
    let mut attempt = |best: &mut Vec<u64>, candidate: Vec<u64>| -> bool {
        if replays == MAX_SHRINK_REPLAYS || !simpler(&candidate, best) {
            return false;
        }
        replays += 1;
        match fails(&candidate) {
            Some(used) if simpler(&used, best) => {
                *best = used;
                true
            }
            _ => false,
        }
    };
    loop {
        let before = tape.clone();
        let mut span = tape.len().next_power_of_two() / 2;
        while span > 0 {
            let mut i = 0;
            while i + span <= tape.len() {
                let mut candidate = tape.clone();
                candidate.drain(i..i + span);
                if !attempt(&mut tape, candidate) {
                    i += 1;
                }
            }
            span /= 2;
        }
        // per choice: 0 if that still fails, else bisect between a value
        // that does not fail and the current one, which does
        let mut i = 0;
        while i < tape.len() {
            let mut lower = |tape: &mut Vec<u64>, to: u64| {
                let mut candidate = tape.clone();
                candidate[i] = to;
                attempt(tape, candidate)
            };
            if tape[i] > 0 && !lower(&mut tape, 0) {
                let mut holds_at = 0;
                while i < tape.len() && tape[i] - holds_at > 1 {
                    let mid = holds_at + (tape[i] - holds_at) / 2;
                    if !lower(&mut tape, mid) {
                        holds_at = mid;
                    }
                }
            }
            i += 1;
        }
        if tape == before {
            return (tape, replays);
        }
    }
}

/// The seed of case `case` of the suite running on a thread of this name.
fn case_seed(suite: &str, case: u32) -> u64 {
    let base = suite
        .bytes()
        .fold(0u64, |h, b| splitmix64(h ^ u64::from(b)));
    splitmix64(base.wrapping_add(u64::from(case)))
}

/// Check that `property` holds (does not panic) for `cases` values drawn by
/// `generate`. The first failing case is shrunk and reported as the module
/// documentation describes; the call then panics with the property's own
/// message for the shrunk input.
pub fn check<T: Debug>(cases: u32, generate: impl Fn(&mut Gen) -> T, property: impl Fn(T)) {
    let thread = std::thread::current();
    let suite = thread.name().unwrap_or("prop");
    for case in 0..cases {
        let seed = case_seed(suite, case);
        let Some(tape) = falsifies(Gen::from_seed(seed), &generate, &property) else {
            continue;
        };
        let (tape, replays) = shrink(tape, |t| falsifies(Gen::replay(t), &generate, &property));
        let input = generate(&mut Gen::replay(&tape));
        eprintln!(
            "prop: `{suite}` falsified by case {case} of {cases} (seed {seed:#018x}); \
             shrunk in {replays} replays to\n{input:#?}"
        );
        property(input);
        panic!("prop: `{suite}` failed on case {case} but holds on its replay: not deterministic");
    }
    println!("prop: `{suite}` held on {cases} cases");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    fn panic_message(f: impl FnOnce()) -> String {
        let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("the property is false");
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => p
                .downcast::<&str>()
                .map_or_else(|_| "?".into(), |s| s.to_string()),
        }
    }

    /// "No list holds three values ≥ 100" is false; its minimal
    /// counterexample is exactly three values, each exactly 100.
    #[test]
    fn a_false_property_shrinks_to_its_minimal_counterexample() {
        let generate = |g: &mut Gen| g.vec(0..40, |g| g.i64(-1000..1000));
        let seen = Mutex::new(Vec::new());
        let message = panic_message(|| {
            check(CASES, generate, |xs: Vec<i64>| {
                let big = xs.iter().filter(|&&x| x >= 100).count();
                seen.lock().unwrap().push(xs.clone());
                assert!(big < 3, "{big} big values in {xs:?}");
            });
        });
        assert_eq!(message, "3 big values in [100, 100, 100]");
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.last(), Some(&vec![100, 100, 100]));
        // the first failing input was not minimal already
        let first = seen
            .iter()
            .find(|xs| xs.iter().filter(|&&x| x >= 100).count() >= 3);
        assert!(first.unwrap().len() > 3, "{first:?}");
    }

    #[test]
    fn a_failing_seed_rebuilds_its_case_and_cases_repeat_across_runs() {
        let generate = |g: &mut Gen| (g.usize(1..9), g.f64(0.5..8.0), g.vec(2..5, Gen::bool));
        let run = || {
            let cases = Mutex::new(Vec::new());
            check(64, generate, |case| cases.lock().unwrap().push(case));
            cases.into_inner().unwrap()
        };
        let cases = run();
        assert_eq!(cases.len(), 64);
        assert_eq!(
            cases,
            run(),
            "the same suite generates the same cases every run"
        );
        assert!(cases.iter().any(|c| c != &cases[0]));
        assert!(cases.iter().all(|(n, x, v)| (1..9).contains(n)
            && (0.5..8.0).contains(x)
            && (2..5).contains(&v.len())));
        // every case comes from the seed a failure on it would print
        let suite = std::thread::current().name().unwrap().to_string();
        for (i, case) in cases.iter().enumerate() {
            let seed = case_seed(&suite, i as u32);
            assert_eq!(&generate(&mut Gen::from_seed(seed)), case);
        }
    }

    #[test]
    fn an_edited_tape_still_replays_to_a_value_of_the_generator() {
        let generate = |g: &mut Gen| {
            (
                g.i64(-5..5),
                g.vec(1..4, |g| g.u64(10..20)),
                g.pick(&["a", "b"]),
            )
        };
        // too short: zeros; too large: clamped
        assert_eq!(generate(&mut Gen::replay(&[])), (-5, vec![10], "a"));
        let mut g = Gen::replay(&[
            u64::MAX,
            u64::MAX,
            u64::MAX,
            u64::MAX,
            u64::MAX,
            u64::MAX,
            7,
        ]);
        assert_eq!(generate(&mut g), (4, vec![19, 19, 19], "b"));
        assert_eq!(g.used, [9, 9, 2, 9, 1, 9, 1]);
        // a recorded tape replays to the same value
        let mut recorded = Gen::from_seed(7);
        let value = generate(&mut recorded);
        assert_eq!(generate(&mut Gen::replay(&recorded.used)), value);
    }

    #[test]
    fn shrinking_stops_at_the_replay_budget() {
        let (_, replays) = shrink(vec![u64::MAX; 64], |t| Some(t.to_vec()));
        assert!(replays <= MAX_SHRINK_REPLAYS);
        let (tape, _) = shrink(vec![9, 9, 9], |t| {
            (t.iter().sum::<u64>() >= 5).then(|| t.to_vec())
        });
        assert_eq!(tape, [5]);
    }
}
