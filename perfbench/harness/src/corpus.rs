//! The `corpus_resume` input: copies of the committed scenario files
//! (`docs/scenarios/*.toml`) with their `[study]` seed rewritten. The
//! corpus is a pure function of the templates and the benchmark seed.

use std::path::Path;

use subvt_rng::splitmix64;

/// Copies of each template in the full-size corpus.
pub const COPIES: usize = 20;

/// One generated scenario document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Template file stem (`corner_sweep`, ...).
    pub stem: String,
    /// Copy index; copy 0 carries the benchmark seed itself, so seed 1
    /// regenerates the committed `docs/results` reports.
    pub copy: usize,
    /// The TOML text handed to `Scenario::from_toml`.
    pub text: String,
}

impl Entry {
    /// File stem for this copy's checkpoint and reports.
    pub fn file_stem(&self) -> String {
        format!("{}-{:02}", self.stem, self.copy)
    }
}

/// Reads the committed scenario templates, sorted by file name.
///
/// # Errors
///
/// A message naming the directory or file that could not be read, or
/// an empty directory.
pub fn read_templates(root: &Path) -> Result<Vec<(String, String)>, String> {
    let dir = root.join("docs/scenarios");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("{}: no scenario templates", dir.display()));
    }
    files
        .iter()
        .map(|p| {
            let stem = p
                .file_stem()
                .and_then(|s| s.to_str())
                .ok_or_else(|| format!("{}: file name is not UTF-8", p.display()))?
                .to_owned();
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            Ok((stem, text))
        })
        .collect()
}

/// The seed of copy `copy`. Kept below 2⁶³ because scenario seeds are
/// TOML integers.
pub fn copy_seed(seed: u64, copy: usize) -> u64 {
    let mut state = seed ^ (copy as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
    let mixed = if copy == 0 {
        seed
    } else {
        splitmix64(&mut state)
    };
    mixed & (i64::MAX as u64)
}

/// `copies` copies of every template with the `[study]` seed
/// rewritten by [`copy_seed`], and the die count replaced by `dies`
/// when given.
///
/// # Errors
///
/// A template without a `seed` or `dies` key in its `[study]` table.
pub fn generate(
    templates: &[(String, String)],
    seed: u64,
    copies: usize,
    dies: Option<usize>,
) -> Result<Vec<Entry>, String> {
    let mut out = Vec::with_capacity(templates.len() * copies);
    for (stem, text) in templates {
        for copy in 0..copies {
            let text = rewrite_study(text, copy_seed(seed, copy), dies)
                .map_err(|key| format!("{stem}.toml: no `{key}` in [study]"))?;
            out.push(Entry {
                stem: stem.clone(),
                copy,
                text,
            });
        }
    }
    Ok(out)
}

/// Rewrites the `seed` (and optionally `dies`) lines of the `[study]`
/// table, leaving every other byte of the document alone.
fn rewrite_study(text: &str, seed: u64, dies: Option<usize>) -> Result<String, &'static str> {
    let mut section = "";
    let (mut saw_seed, mut saw_dies) = (false, false);
    let mut out = String::with_capacity(text.len() + 16);
    for line in text.split_inclusive('\n') {
        let trimmed = line.trim();
        if trimmed.starts_with('[') {
            section = trimmed;
        }
        let key = trimmed.split('=').next().unwrap_or("").trim();
        if section == "[study]" && trimmed.contains('=') && key == "seed" {
            out.push_str(&format!("seed = {seed}\n"));
            saw_seed = true;
        } else if section == "[study]" && trimmed.contains('=') && key == "dies" {
            match dies {
                Some(d) => out.push_str(&format!("dies = {d}\n")),
                None => out.push_str(line),
            }
            saw_dies = true;
        } else {
            out.push_str(line);
        }
    }
    match (saw_seed, saw_dies) {
        (false, _) => Err("seed"),
        (_, false) => Err("dies"),
        _ => Ok(out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn templates() -> Vec<(String, String)> {
        read_templates(&crate::repo_root()).expect("committed scenario templates")
    }

    #[test]
    fn the_corpus_is_a_pure_function_of_the_seed() {
        let t = templates();
        let a = generate(&t, 7, COPIES, None).unwrap();
        assert_eq!(a, generate(&t, 7, COPIES, None).unwrap());
        assert_eq!(a.len(), t.len() * COPIES);
        let b = generate(&t, 8, COPIES, None).unwrap();
        assert!(a.iter().zip(&b).all(|(x, y)| x.text != y.text));
        let seeds: std::collections::BTreeSet<u64> = (0..COPIES).map(|c| copy_seed(7, c)).collect();
        assert_eq!(seeds.len(), COPIES, "copies must not share a seed");
    }

    #[test]
    fn copy_zero_at_seed_one_is_the_committed_file() {
        let t = templates();
        let corpus = generate(&t, 1, 2, None).unwrap();
        for (stem, text) in &t {
            let first = corpus
                .iter()
                .find(|e| &e.stem == stem && e.copy == 0)
                .unwrap();
            assert_eq!(&first.text, text);
        }
    }

    #[test]
    fn the_die_override_only_touches_the_study_table() {
        let t = templates();
        for e in generate(&t, 3, 1, Some(1)).unwrap() {
            let s = subvt_scenario::Scenario::from_toml(&e.text).unwrap();
            assert_eq!((s.study.dies, s.study.seed), (1, 3));
        }
        assert_eq!(
            rewrite_study("name = \"x\"\n[study]\ndies = 5\n", 1, None),
            Err("seed")
        );
    }
}
