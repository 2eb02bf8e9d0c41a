//! Durable file I/O: the crash-safety primitives behind the serve journal.
//!
//! Three guarantees matter for a write-ahead log and its snapshots, and the
//! standard library gives none of them by default:
//!
//! * **Atomic replace** — [`atomic_write_with`] streams a sibling temp file,
//!   fsyncs it, renames it over the target, then fsyncs the directory, so a
//!   crash leaves either the old file or the new one, never a torn mix.
//! * **Torn-tail discipline** — a crash mid-append leaves a partial final
//!   line. [`open_append_complete`] truncates an unterminated tail before
//!   reopening for append (the record was never acknowledged, so dropping it
//!   is correct), and [`read_complete_lines`] skips it on read.
//! * **Explicit sync points** — appends go straight to the `File` (no
//!   `BufWriter`), and callers choose when [`File::sync_data`] runs.
//!
//! Everything here is plain `std::io` so any crate in the workspace can
//! depend on it without cycles.

use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Fsyncs a directory so a rename or file creation inside it is durable.
/// On platforms where directories cannot be opened for sync this degrades
/// to a no-op error swallow — the data file itself is still synced.
pub fn sync_dir(dir: &Path) -> io::Result<()> {
    match File::open(dir) {
        Ok(d) => d.sync_all(),
        Err(_) => Ok(()),
    }
}

/// Writes `bytes` to `path` atomically (see [`atomic_write_with`]).
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    atomic_write_with(path, |w| w.write_all(bytes))
}

/// Replaces `path` atomically with whatever `write` streams into a buffered
/// writer: temp sibling, fsync, rename over the target, fsync the parent
/// directory. A crash at any instant leaves either the previous file intact
/// or the new one complete, and the document never has to exist in memory
/// as one buffer.
pub fn atomic_write_with(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> io::Result<()> {
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let tmp = path.with_extension("tmp");
    {
        let mut w = BufWriter::with_capacity(1 << 16, File::create(&tmp)?);
        write(&mut w)?;
        w.into_inner().map_err(|e| e.into_error())?.sync_data()?;
    }
    std::fs::rename(&tmp, path)?;
    sync_dir(dir)
}

/// Length of the newline-terminated prefix of `bytes`: everything up to
/// and including the last `\n`.
fn complete_prefix_len(bytes: &[u8]) -> usize {
    bytes
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |last| last + 1)
}

/// Decodes the complete lines of a journal. Only the newline-terminated
/// prefix is decoded, so a crash mid-append inside a multi-byte character
/// tears nothing but the tail; a non-UTF-8 byte inside a complete line is
/// an `InvalidData` error.
fn complete_text(bytes: &[u8]) -> io::Result<&str> {
    std::str::from_utf8(&bytes[..complete_prefix_len(bytes)])
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Reads every newline-terminated line of `path`. A final unterminated
/// fragment (the signature of a crash mid-append) is **not** returned, nor
/// decoded; the second element reports how many bytes of torn tail were
/// ignored.
pub fn read_complete_lines(path: &Path) -> io::Result<(Vec<String>, usize)> {
    let bytes = std::fs::read(path)?;
    let complete = complete_text(&bytes)?;
    let torn = bytes.len() - complete.len();
    Ok((complete.lines().map(|l| l.to_string()).collect(), torn))
}

/// Opens `path` for appending, creating it if missing. If the file ends in
/// a partial line (crash mid-append), the tail is truncated first so the
/// next append starts on a clean record boundary. Returns the file plus the
/// number of complete lines already present.
pub fn open_append_complete(path: &Path) -> io::Result<(File, u64)> {
    let mut f = OpenOptions::new()
        .read(true)
        .create(true)
        .append(true)
        .open(path)?;
    let mut bytes = Vec::new();
    f.read_to_end(&mut bytes)?;
    let keep = complete_text(&bytes)?.len();
    if keep < bytes.len() {
        truncate_sync(&mut f, keep as u64)?;
    }
    f.seek(SeekFrom::End(0))?;
    let lines = bytes[..keep].iter().filter(|&&b| b == b'\n').count() as u64;
    Ok((f, lines))
}

/// Truncates `f` to `len` bytes and syncs the truncation to disk. Works on
/// files opened in append mode (append mode only redirects *writes* to the
/// end; `set_len` is unaffected). `len == 0` is valid and leaves an empty
/// file — the caller's record count is then zero, not an error.
pub fn truncate_sync(f: &mut File, len: u64) -> io::Result<()> {
    f.set_len(len)?;
    f.sync_data()
}

/// Appends one line (a trailing `\n` is added) to an already-open file in
/// a single `write_all`, so the record reaches the kernel in one `write(2)`
/// rather than as a line and a separate newline. The record is staged in
/// `buf` (cleared first); callers keep one buffer across appends so a
/// steady-state append does not allocate.
pub fn append_line(f: &mut File, buf: &mut Vec<u8>, line: &str) -> io::Result<()> {
    buf.clear();
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    f.write_all(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("trout_fsio_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}_{}", std::process::id()))
    }

    #[test]
    fn atomic_write_replaces_contents() {
        let p = tmp("atomic");
        atomic_write(&p, b"first\n").unwrap();
        atomic_write_with(&p, |w| {
            w.write_all(b"sec")?;
            w.write_all(b"ond\n")
        })
        .unwrap();
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "second\n");
        assert!(!p.with_extension("tmp").exists(), "temp file renamed away");
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn read_complete_lines_drops_torn_tail() {
        let p = tmp("torn_read");
        std::fs::write(&p, "a\nb\ntorn-frag").unwrap();
        let (lines, torn) = read_complete_lines(&p).unwrap();
        assert_eq!(lines, vec!["a", "b"]);
        assert_eq!(torn, "torn-frag".len());
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn open_append_truncates_torn_tail_and_counts_lines() {
        let p = tmp("torn_append");
        std::fs::write(&p, "a\nb\npartial").unwrap();
        let (mut f, lines) = open_append_complete(&p).unwrap();
        assert_eq!(lines, 2);
        append_line(&mut f, &mut Vec::new(), "c").unwrap();
        drop(f);
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "a\nb\nc\n");
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn torn_multibyte_tail_is_dropped_but_bad_complete_lines_error() {
        // A crash mid-append cut `"é"` after its first byte: the torn tail
        // is not UTF-8, yet only the tail is dropped.
        let p = tmp("torn_utf8");
        let mut bytes = b"{\"a\":1}\n{\"name\":\"".to_vec();
        bytes.push("é".as_bytes()[0]);
        std::fs::write(&p, &bytes).unwrap();
        let (lines, torn) = read_complete_lines(&p).unwrap();
        assert_eq!(lines, vec!["{\"a\":1}"]);
        assert_eq!(torn, bytes.len() - 8);
        let (mut f, n) = open_append_complete(&p).unwrap();
        assert_eq!(n, 1);
        append_line(&mut f, &mut Vec::new(), "b").unwrap();
        drop(f);
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "{\"a\":1}\nb\n");

        // The same byte inside a complete line is corruption, not a tear.
        bytes.push(b'\n');
        std::fs::write(&p, &bytes).unwrap();
        for err in [
            read_complete_lines(&p).unwrap_err(),
            open_append_complete(&p).unwrap_err(),
        ] {
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn open_append_torn_only_line_truncates_to_empty() {
        // A crash during the very first append leaves a file holding nothing
        // but the torn fragment. Reopen must truncate to an *empty* file and
        // report zero complete lines — not error — so recovery can proceed
        // from the snapshot watermark alone.
        let p = tmp("torn_only");
        std::fs::write(&p, "partial-no-newline").unwrap();
        let (mut f, lines) = open_append_complete(&p).unwrap();
        assert_eq!(lines, 0);
        assert_eq!(f.metadata().unwrap().len(), 0, "truncated to empty");
        append_line(&mut f, &mut Vec::new(), "first").unwrap();
        drop(f);
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "first\n");
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn truncate_sync_shrinks_open_append_file() {
        let p = tmp("trunc");
        std::fs::write(&p, "aaaa\nbbbb\n").unwrap();
        let (mut f, lines) = open_append_complete(&p).unwrap();
        assert_eq!(lines, 2);
        truncate_sync(&mut f, 5).unwrap();
        drop(f);
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "aaaa\n");
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn open_append_creates_missing_file() {
        let p = tmp("fresh");
        let _ = std::fs::remove_file(&p);
        let (mut f, lines) = open_append_complete(&p).unwrap();
        assert_eq!(lines, 0);
        append_line(&mut f, &mut Vec::new(), "x").unwrap();
        f.sync_data().unwrap();
        let (lines, torn) = read_complete_lines(&p).unwrap();
        assert_eq!((lines.len(), torn), (1, 0));
        std::fs::remove_file(&p).unwrap();
    }
}
