//! Seeded edit and commit scripts.
//!
//! Every edited file carries one appended probe procedure whose body is
//! `PROC_DEFS(); PROC_PROLOGUE();×k`. It follows the procedure hook rules,
//! so no checker reports on it: changing `k` is a body-only edit of one
//! existing function that leaves every report (and every report line,
//! since the probe sits below all other code) as it was.

use mc_corpus::rng::CorpusRng;
use std::collections::BTreeSet;

/// Statement counts are drawn from `1..=PROBE_RANGE`; past that, fresh
/// counts continue upward.
const PROBE_RANGE: u64 = 400;

/// The probe procedure for the file `stem`, `stmts` statements long.
pub fn probe_fn(stem: &str, stmts: usize) -> String {
    let name: String = stem
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    format!(
        "\nvoid bench_probe_{name}(void) {{ PROC_DEFS(); {}}}\n",
        "PROC_PROLOGUE(); ".repeat(stmts)
    )
}

/// One editable file: its generated text plus the probe and comment state
/// the scripts change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EditableFile {
    stem: String,
    base: String,
    stmts: usize,
    comments: usize,
    used: BTreeSet<usize>,
}

impl EditableFile {
    /// A file whose probe starts at one statement.
    pub fn new(stem: &str, base: &str) -> EditableFile {
        EditableFile {
            stem: stem.to_string(),
            base: base.to_string(),
            stmts: 1,
            comments: 0,
            used: BTreeSet::from([1]),
        }
    }

    /// The file's current bytes.
    pub fn render(&self) -> String {
        let mut text = self.base.clone() + &probe_fn(&self.stem, self.stmts);
        for n in 1..=self.comments {
            text.push_str(&format!("/* bench edit {n} */\n"));
        }
        text
    }

    /// Sets the probe to a statement count this file has not had before.
    fn fresh_probe(&mut self, rng: &mut CorpusRng) -> usize {
        let mut k = (rng.next_u64() % PROBE_RANGE) as usize + 1;
        while self.used.contains(&k) {
            k = k % (self.used.len() + PROBE_RANGE as usize) + 1;
        }
        self.used.insert(k);
        self.stmts = k;
        k
    }
}

/// One save in the editor loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edit {
    /// The probe of `file` was set to `stmts` statements (a body edit).
    Probe {
        /// File index.
        file: usize,
        /// New statement count.
        stmts: usize,
    },
    /// A comment was appended to `file` (a layout-only edit).
    Comment {
        /// File index.
        file: usize,
    },
    /// `file` was saved with identical bytes.
    Resave {
        /// File index.
        file: usize,
    },
}

impl Edit {
    /// The edited file's index.
    pub fn file(self) -> usize {
        match self {
            Edit::Probe { file, .. } | Edit::Comment { file } | Edit::Resave { file } => file,
        }
    }
}

/// The editor-loop script: 70% probe edits, 20% comment appends, 10%
/// identical re-saves, over uniformly drawn files.
pub struct EditScript {
    rng: CorpusRng,
}

impl EditScript {
    /// The script for `seed`.
    pub fn new(seed: u64) -> EditScript {
        EditScript {
            rng: CorpusRng::seed_from_u64(seed ^ 0xED17_5C21_7000_0001),
        }
    }

    /// Draws the next edit and applies it to `files`.
    pub fn next_edit(&mut self, files: &mut [EditableFile]) -> Edit {
        let roll = self.rng.next_u64() % 100;
        let file = (self.rng.next_u64() % files.len() as u64) as usize;
        let f = &mut files[file];
        match roll {
            0..=69 => Edit::Probe {
                file,
                stmts: f.fresh_probe(&mut self.rng),
            },
            70..=89 => {
                f.comments += 1;
                Edit::Comment { file }
            }
            _ => Edit::Resave { file },
        }
    }
}

/// The shared-cache CI script: each commit rewrites the probe of a seeded
/// 5% of the files (at least one).
pub struct CommitScript {
    rng: CorpusRng,
}

impl CommitScript {
    /// The script for `seed`.
    pub fn new(seed: u64) -> CommitScript {
        CommitScript {
            rng: CorpusRng::seed_from_u64(seed ^ 0xC0_4417_5C21_7000),
        }
    }

    /// Draws the next commit, applies it to `files`, and returns the
    /// changed file indices in ascending order.
    pub fn next_commit(&mut self, files: &mut [EditableFile]) -> Vec<usize> {
        let want = (files.len() * 5).div_ceil(100).max(1);
        let mut picked = BTreeSet::new();
        while picked.len() < want {
            picked.insert((self.rng.next_u64() % files.len() as u64) as usize);
        }
        for &i in &picked {
            files[i].fresh_probe(&mut self.rng);
        }
        picked.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files(n: usize) -> Vec<EditableFile> {
        (0..n)
            .map(|i| EditableFile::new(&format!("f{i}"), &format!("int g{i};\n")))
            .collect()
    }

    fn edit_run(seed: u64, n: usize) -> (Vec<Edit>, Vec<String>) {
        let mut fs = files(5);
        let mut script = EditScript::new(seed);
        let edits = (0..n).map(|_| script.next_edit(&mut fs)).collect();
        (edits, fs.iter().map(EditableFile::render).collect())
    }

    fn commit_run(seed: u64, n: usize) -> (Vec<Vec<usize>>, Vec<String>) {
        let mut fs = files(90);
        let mut script = CommitScript::new(seed);
        let commits = (0..n).map(|_| script.next_commit(&mut fs)).collect();
        (commits, fs.iter().map(EditableFile::render).collect())
    }

    #[test]
    fn scripts_are_byte_deterministic_per_seed() {
        assert_eq!(edit_run(61861, 500), edit_run(61861, 500));
        assert_ne!(edit_run(61861, 500), edit_run(7, 500));
        assert_eq!(commit_run(61861, 12), commit_run(61861, 12));
        assert_ne!(commit_run(61861, 12), commit_run(7, 12));
    }

    #[test]
    fn edit_mix_and_fresh_probe_counts() {
        let mut fs = files(5);
        let mut script = EditScript::new(61861);
        let mut seen: Vec<BTreeSet<usize>> = vec![BTreeSet::from([1]); 5];
        let (mut probes, mut comments, mut resaves) = (0, 0, 0);
        for _ in 0..1000 {
            match script.next_edit(&mut fs) {
                Edit::Probe { file, stmts } => {
                    assert!(seen[file].insert(stmts), "probe count repeated");
                    probes += 1;
                }
                Edit::Comment { .. } => comments += 1,
                Edit::Resave { .. } => resaves += 1,
            }
        }
        assert!((650..750).contains(&probes), "{probes}");
        assert!((150..250).contains(&comments), "{comments}");
        assert!((60..140).contains(&resaves), "{resaves}");
    }

    #[test]
    fn commits_touch_five_percent() {
        let (commits, _) = commit_run(61861, 12);
        assert!(commits.iter().all(|c| c.len() == 5), "{commits:?}");
    }

    #[test]
    fn probe_sits_below_the_base_text() {
        let f = EditableFile::new("bitvector_ni", "int a;\n");
        assert!(f.render().starts_with("int a;\n"));
        assert!(f
            .render()
            .contains("void bench_probe_bitvector_ni(void) { PROC_DEFS(); PROC_PROLOGUE(); }"));
    }
}
