//! The `--telemetry-json <path>` snapshot writer of the `nc-bench` driver:
//! after a run, the process-wide [`nc_telemetry`] snapshot is serialized to
//! `<path>` so CI (or a curious human) can diff counters and latency
//! histograms across runs without scraping stdout.

use std::io;

/// Writes the process-wide telemetry snapshot to `path` as JSON, creating
/// any missing parent directories first (so `--telemetry-json a/b/c.json`
/// works on a fresh checkout instead of failing with `NotFound`).
///
/// # Errors
///
/// Any I/O error from creating the directories or writing the file.
pub fn dump_telemetry(path: &str) -> io::Result<()> {
    create_parent_dirs(path)?;
    nc_telemetry::snapshot().write_json_file(path)
}

/// Creates every missing directory above `path` (no-op for bare
/// filenames).
fn create_parent_dirs(path: &str) -> io::Result<()> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dump_telemetry_creates_missing_parent_directories() {
        let dir = std::env::temp_dir().join(format!("nc-bench-telemetry-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("a").join("b").join("telemetry.json");
        let path = path.to_str().unwrap();
        dump_telemetry(path).unwrap();
        let written = std::fs::read_to_string(path).unwrap();
        assert!(written.trim_start().starts_with('{'), "snapshot must be JSON: {written:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bare_filenames_need_no_directories() {
        create_parent_dirs("telemetry.json").unwrap();
    }
}
