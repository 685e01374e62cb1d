//! The recorded deterministic snapshots: `goldens.txt` holds one line
//! `<workload> <input seed> <fnv64 of MethodMetrics::deterministic_snapshot>`
//! per recorded input. `--golden-line` prints the lines of a seed's
//! inputs.

use crate::workload::Workload;

const TABLE: &str = include_str!("../goldens.txt");

/// The recorded snapshot hash for `w` at `seed`, if any.
pub fn lookup(w: Workload, seed: u64) -> Option<u64> {
    TABLE.lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        let (name, s, hash) = (fields.next()?, fields.next()?, fields.next()?);
        let s = u64::from_str_radix(s.strip_prefix("0x")?, 16).ok()?;
        (name == w.name() && s == seed)
            .then(|| u64::from_str_radix(hash, 16).ok())
            .flatten()
    })
}
