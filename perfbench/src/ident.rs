//! Workload identity, after GBD (Iser, Springer & Sinz): every result
//! names the exact generated instance it ran on and the machine and build
//! that ran it, so results are only ever compared like with like.

use std::fs;
use std::path::{Path, PathBuf};

/// 64-bit FNV-1a: a stable, dependency-free content hash (unlike the
/// standard library's hasher, its output is fixed across Rust releases).
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Fnv64 {
    pub fn new() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Writes a length-prefixed field, so `("ab", "c")` and `("a", "bc")`
    /// hash differently.
    pub fn field(&mut self, bytes: &[u8]) {
        self.write(&(bytes.len() as u64).to_le_bytes());
        self.write(bytes);
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The machine and build attributes attached to every result.
pub struct Machine {
    pub nproc: usize,
    pub profile: &'static str,
    pub git_rev: String,
    pub source_digest: String,
}

impl Machine {
    /// Reads the attributes from the process and the checkout at `root`.
    pub fn detect(root: &Path) -> Machine {
        Machine {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            git_rev: git_rev(root).unwrap_or_else(|| "none".to_string()),
            source_digest: source_digest(root),
        }
    }
}

/// The checked-out commit, read from `.git` without running git; `None`
/// outside a git work tree (an exported source tree, for one).
fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (rev, name) = line.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}

/// A digest of every source file the benchmark binary is built from
/// (the relviz crates, the vendored stand-ins and the benchmark itself),
/// which identifies the code even where there is no git metadata.
fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    for dir in ["crates", "vendor", "perfbench/src"] {
        collect_sources(&root.join(dir), &mut files);
    }
    files.push(root.join("perfbench/Cargo.toml"));
    files.sort();
    let mut h = Fnv64::new();
    for path in &files {
        let Ok(bytes) = fs::read(path) else { continue };
        let rel = path.strip_prefix(root).unwrap_or(path);
        h.field(rel.to_string_lossy().as_bytes());
        h.field(&bytes);
    }
    h.hex()
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("rs") | Some("toml")
        ) {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_reference_vectors() {
        let mut h = Fnv64::new();
        assert_eq!(h.hex(), "cbf29ce484222325");
        h.write(b"a");
        assert_eq!(h.hex(), "af63dc4c8601ec8c");
        let mut h = Fnv64::new();
        h.write(b"foobar");
        assert_eq!(h.hex(), "85944171f73967e8");
    }

    #[test]
    fn fields_are_length_prefixed() {
        let mut a = Fnv64::new();
        a.field(b"ab");
        a.field(b"c");
        let mut b = Fnv64::new();
        b.field(b"a");
        b.field(b"bc");
        assert_ne!(a.hex(), b.hex());
    }
}
