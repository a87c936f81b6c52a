//! Crash-safe file output for the artifacts `eblow-eval` writes.

use std::io;
use std::path::Path;

/// Writes `contents` to `path` atomically: the bytes go to a sibling
/// temporary file first and are renamed into place, so a reader (or a
/// crash) never observes a half-written file. Parent directories are
/// created as needed.
pub fn write_text_atomic(path: &Path, contents: &str) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    // The temp name is unique per process and write, so two concurrent
    // writers to the same path never interleave inside one temp file —
    // last rename wins with a complete document either way.
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".{}.{seq}.tmp", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);
    // Don't leave the orphan temp file behind when either step fails —
    // a failed write (e.g. ENOSPC) would otherwise litter a new temp per
    // attempt precisely when the disk is already full.
    std::fs::write(&tmp, contents)
        .and_then(|()| std::fs::rename(&tmp, path))
        .inspect_err(|_| {
            std::fs::remove_file(&tmp).ok();
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_text_atomic_creates_dirs_and_replaces_content() {
        let dir = std::env::temp_dir()
            .join("eblow-eval-io-test")
            .join(format!("nested-{}", std::process::id()));
        let path = dir.join("stats.json");
        write_text_atomic(&path, "first").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "first");
        write_text_atomic(&path, "second").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second");
        // No temp-file residue after a successful rename.
        let residue: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(residue.is_empty());
        std::fs::remove_dir_all(dir.parent().unwrap()).ok();
    }
}
