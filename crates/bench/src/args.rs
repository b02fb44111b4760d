//! The row flags of the gate table: one parser for `--class`, `--runs`,
//! `--pes`, `--chunk-bytes` and `--full-every`, whichever of them a row
//! takes.

use drms_apps::Class;

use crate::gate::usage;

/// A row's settings. `Default` is the paper's setting; each row starts
/// from its own defaults — the flags behind its committed baseline.
#[derive(Debug, Clone)]
pub struct Options {
    /// Problem class (default A, the paper's setting).
    pub class: Class,
    /// Seeded repetitions per configuration (default 5, Table 5's runs).
    pub runs: usize,
    /// Processor counts to measure.
    pub pes: Vec<usize>,
    /// Delta-chunk size in bytes for incremental checkpointing
    /// (`--chunk-bytes N`); `0` follows the integrity chunk size.
    pub chunk_bytes: u64,
    /// Full-rewrite epoch for incremental checkpointing
    /// (`--full-every N`): at most `N - 1` deltas between full rewrites.
    pub full_every: u64,
}

impl Default for Options {
    fn default() -> Self {
        Options { class: Class::A, runs: 5, pes: vec![8, 16], chunk_bytes: 0, full_every: 8 }
    }
}

impl Options {
    /// Parses `rest`, the flags the gate front-end left for row `row`,
    /// over `self` (the row's defaults). A flag outside `takes`, a missing
    /// value or a bad one aborts with the usage text.
    pub fn parse(mut self, row: &str, takes: &[&str], rest: &[String]) -> Options {
        let mut it = rest.iter();
        while let Some(flag) = it.next() {
            if !takes.contains(&flag.as_str()) {
                usage(&format!("{row} takes no flag {flag:?}"));
            }
            let v = it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
            match flag.as_str() {
                "--class" => {
                    self.class =
                        Class::parse(v).unwrap_or_else(|| usage(&format!("unknown class {v:?}")));
                }
                "--runs" => {
                    self.runs = v
                        .parse()
                        .ok()
                        .filter(|&n| n > 0)
                        .unwrap_or_else(|| usage(&format!("bad run count {v:?}")));
                }
                "--pes" => {
                    self.pes = v
                        .split(',')
                        .map(|s| {
                            s.trim()
                                .parse()
                                .ok()
                                .filter(|p| (1..=16).contains(p))
                                .unwrap_or_else(|| usage(&format!("bad PE count {s:?}")))
                        })
                        .collect();
                }
                "--chunk-bytes" => {
                    self.chunk_bytes =
                        v.parse().ok().unwrap_or_else(|| usage(&format!("bad chunk size {v:?}")));
                }
                "--full-every" => {
                    self.full_every = v
                        .parse()
                        .ok()
                        .filter(|&n| n > 0)
                        .unwrap_or_else(|| usage(&format!("bad full-rewrite epoch {v:?}")));
                }
                other => unreachable!("{row} lists an unknown flag {other:?}"),
            }
        }
        self
    }

    /// The one PE count of a row that runs at a single count (`--pes N`).
    pub fn single_pes(&self) -> usize {
        match self.pes[..] {
            [pes] => pes,
            _ => usage(&format!("--pes takes one count here, not {:?}", self.pes)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: &[&str] = &["--class", "--runs", "--pes", "--chunk-bytes", "--full-every"];

    fn parse(v: &[&str]) -> Options {
        let rest: Vec<String> = v.iter().map(|s| s.to_string()).collect();
        Options::default().parse("t", ALL, &rest)
    }

    #[test]
    fn defaults() {
        let o = parse(&[]);
        assert_eq!(o.class, Class::A);
        assert_eq!(o.runs, 5);
        assert_eq!(o.pes, vec![8, 16]);
    }

    #[test]
    fn overrides() {
        let o = parse(&["--class", "W", "--runs", "3", "--pes", "4,8"]);
        assert_eq!(o.class, Class::W);
        assert_eq!(o.runs, 3);
        assert_eq!(o.pes, vec![4, 8]);
        assert_eq!(o.chunk_bytes, 0);
        assert_eq!(o.full_every, 8);
        // A row's own defaults survive the flags it was not given.
        let rest = ["--pes".to_string(), "2".to_string()];
        let o = Options { class: Class::T, ..Options::default() }.parse("t", ALL, &rest);
        assert_eq!((o.class, o.single_pes()), (Class::T, 2));
    }

    #[test]
    fn delta_knobs() {
        let o = parse(&["--chunk-bytes", "4096", "--full-every", "4"]);
        assert_eq!(o.chunk_bytes, 4096);
        assert_eq!(o.full_every, 4);
    }
}
