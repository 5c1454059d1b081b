//! Operation accounting behind `ok_ratio`, `attempted` and `failed`.
//!
//! An operation is one simulated cell or one output check. A cell fails
//! when its supervised status is not Ok or when it committed zero MT
//! instructions (a run that "succeeded" without simulating anything);
//! a check fails when two byte streams that must agree do not.

/// Running count of attempted and failed operations, with a note per
/// failure.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failure.
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts one cell: it fails unless `ok` and it committed at least
    /// one MT instruction.
    pub fn cell(&mut self, label: &str, ok: bool, mt_committed: u64) {
        self.attempted += 1;
        if !ok {
            self.fail(format!("cell {label}: supervisor status is not Ok"));
        } else if mt_committed == 0 {
            self.fail(format!("cell {label}: committed zero MT instructions"));
        }
    }

    /// Counts one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    fn fail(&mut self, note: String) {
        self.failed += 1;
        self.notes.push(note);
    }

    /// Succeeded operations over attempted ones (1.0 when nothing was
    /// attempted, which no run does: every run attempts cells).
    pub fn ok_ratio(&self) -> f64 {
        if self.attempted == 0 {
            return 1.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cells_count_as_failures() {
        let mut t = Tally::default();
        t.cell("a/bl", true, 26_232);
        t.cell("gobmk_like/bl", true, 0);
        t.cell("b/dla", false, 1_000);
        assert_eq!(t.attempted, 3);
        assert_eq!(t.failed, 2);
        assert!((t.ok_ratio() - 1.0 / 3.0).abs() < 1e-12);
        assert!(t.notes[0].contains("zero MT instructions"));
    }

    #[test]
    fn checks_count_against_the_same_ratio() {
        let mut t = Tally::default();
        t.check(true, || unreachable!("passing checks build no note"));
        t.check(false, || "served report differs".to_string());
        t.cell("c/r3", true, 1);
        assert_eq!((t.attempted, t.failed), (3, 1));
        assert_eq!(t.notes, vec!["served report differs".to_string()]);
    }
}
