//! Simulated Unix filesystem.
//!
//! Everything the paper's agents persist is "flat ASCII files generated
//! by I/O Unix pipes": flags in `/logs/intelliagents/<agent>`, circular
//! measurement logs, ontology files, application error logs. This module
//! provides a per-server filesystem of line-oriented ASCII files under
//! mount points with finite capacity — so a full `/logs` filesystem is a
//! *real* fault the resource agents must detect (from a failed write)
//! and heal (by rotating old logs).

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::ops::Bound;

use intelliqos_simkern::SimTime;

/// Errors from filesystem operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// No mount point covers the path.
    NoSuchMount(String),
    /// The covering filesystem has no space left.
    NoSpace(String),
    /// The path does not exist.
    NotFound(String),
    /// The covering filesystem is not mounted (e.g. NFS server down).
    NotMounted(String),
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsError::NoSuchMount(p) => write!(f, "no filesystem covers {p}"),
            FsError::NoSpace(p) => write!(f, "no space left on device: {p}"),
            FsError::NotFound(p) => write!(f, "no such file: {p}"),
            FsError::NotMounted(p) => write!(f, "filesystem not mounted: {p}"),
        }
    }
}

impl std::error::Error for FsError {}

/// One ASCII file.
#[derive(Debug, Clone)]
pub struct SimFile {
    /// File body as lines (no trailing newlines stored).
    pub lines: Vec<String>,
    /// Bytes of lines appended by size only ([`SimFs::append_sized`]):
    /// counted against the filesystem, but with no content kept.
    pub sized_bytes: u64,
    /// Creation time.
    pub created_at: SimTime,
    /// Last modification time.
    pub modified_at: SimTime,
}

impl SimFile {
    /// Total size in bytes: each line plus one newline, plus the
    /// size-only bytes.
    pub fn size_bytes(&self) -> u64 {
        lines_size(&self.lines) + self.sized_bytes
    }
}

/// Bytes a run of lines occupies on disk (each line plus one newline).
fn lines_size(lines: &[String]) -> u64 {
    lines.iter().map(|l| l.len() as u64 + 1).sum()
}

/// A mounted filesystem with finite capacity.
#[derive(Debug, Clone)]
struct Mount {
    capacity_bytes: u64,
    used_bytes: u64,
    mounted: bool,
}

/// A per-server tree of ASCII files under capacity-limited mounts.
#[derive(Debug, Clone, Default)]
pub struct SimFs {
    /// Mount point path → mount state. Longest-prefix match wins.
    mounts: BTreeMap<String, Mount>,
    files: BTreeMap<String, SimFile>,
}

impl SimFs {
    /// Empty filesystem with no mounts.
    pub fn new() -> Self {
        SimFs::default()
    }

    /// A filesystem with the standard layout the paper assumes:
    /// `/` (2 GB), `/apps` (4 GB, agent binaries live in
    /// `/apps/intelliagents`), `/logs` (1 GB, flags and measurements).
    pub fn with_standard_layout() -> Self {
        let mut fs = SimFs::new();
        fs.add_mount("/", 2 * 1024 * 1024 * 1024);
        fs.add_mount("/apps", 4 * 1024 * 1024 * 1024);
        fs.add_mount("/logs", 1024 * 1024 * 1024);
        fs
    }

    /// Register a mount point with the given capacity.
    pub fn add_mount(&mut self, path: impl Into<String>, capacity_bytes: u64) {
        self.mounts.insert(
            normalize(path.into()),
            Mount {
                capacity_bytes,
                used_bytes: 0,
                mounted: true,
            },
        );
    }

    /// Unmount (NFS outage, device failure). Files are preserved but
    /// inaccessible until remounted.
    pub fn set_mounted(&mut self, mount: &str, mounted: bool) -> bool {
        if let Some(m) = self.mounts.get_mut(&normalize(mount.to_string())) {
            m.mounted = mounted;
            true
        } else {
            false
        }
    }

    /// Is the given mount point currently mounted?
    pub fn is_mounted(&self, mount: &str) -> bool {
        self.mounts
            .get(&normalize(mount.to_string()))
            .map(|m| m.mounted)
            .unwrap_or(false)
    }

    /// Find the longest mount-point prefix covering `path`.
    fn mount_for(&self, path: &str) -> Option<&Mount> {
        self.mounts
            .iter()
            .filter(|(mp, _)| covers(mp, path))
            .max_by_key(|(mp, _)| mp.len())
            .map(|(_, m)| m)
    }

    fn mount_for_mut(&mut self, path: &str) -> Option<&mut Mount> {
        self.mounts
            .iter_mut()
            .filter(|(mp, _)| covers(mp, path))
            .max_by_key(|(mp, _)| mp.len())
            .map(|(_, m)| m)
    }

    /// The mount that may take a change of `old_size` → `new_size`
    /// bytes on `path`, with the errors `write` reports when it may not.
    fn mount_with_room(
        &mut self,
        path: &str,
        old_size: u64,
        new_size: u64,
    ) -> Result<&mut Mount, FsError> {
        let mount = self
            .mount_for_mut(path)
            .ok_or_else(|| FsError::NoSuchMount(path.to_string()))?;
        if !mount.mounted {
            return Err(FsError::NotMounted(path.to_string()));
        }
        if mount.used_bytes - old_size + new_size > mount.capacity_bytes {
            return Err(FsError::NoSpace(path.to_string()));
        }
        Ok(mount)
    }

    /// Usage fraction (0–1) of the filesystem covering `path`.
    pub fn usage_fraction(&self, path: &str) -> Option<f64> {
        self.mount_for(path)
            .map(|m| m.used_bytes as f64 / m.capacity_bytes.max(1) as f64)
    }

    /// Create or truncate a file with the given lines.
    pub fn write(
        &mut self,
        path: impl Into<String>,
        lines: Vec<String>,
        now: SimTime,
    ) -> Result<(), FsError> {
        let path = normalize(path.into());
        let new_size = lines_size(&lines);
        let old_size = self.files.get(&path).map(|f| f.size_bytes()).unwrap_or(0);
        let mount = self.mount_with_room(&path, old_size, new_size)?;
        mount.used_bytes = mount.used_bytes - old_size + new_size;
        let created_at = self.files.get(&path).map(|f| f.created_at).unwrap_or(now);
        self.files.insert(
            path,
            SimFile {
                lines,
                sized_bytes: 0,
                created_at,
                modified_at: now,
            },
        );
        Ok(())
    }

    /// Append `line` to a circular file of at most `max_lines` lines,
    /// dropping the oldest lines to make room. The result — bytes,
    /// timestamps, `used_bytes`, and the `NoSpace`/`NotMounted` errors —
    /// is exactly that of [`SimFs::write`] of the new window, but the
    /// retained lines stay in place instead of being rebuilt.
    pub fn rotate_append(
        &mut self,
        path: impl Into<String>,
        line: String,
        max_lines: usize,
        now: SimTime,
    ) -> Result<(), FsError> {
        let path = normalize(path.into());
        let (old_size, drop, dropped_size) = match self.files.get(&path) {
            Some(f) => {
                let drop = (f.lines.len() + 1).saturating_sub(max_lines.max(1));
                (
                    f.size_bytes(),
                    drop,
                    lines_size(&f.lines[..drop]) + f.sized_bytes,
                )
            }
            None => (0, 0, 0),
        };
        let new_size = old_size - dropped_size + line.len() as u64 + 1;
        let mount = self.mount_with_room(&path, old_size, new_size)?;
        mount.used_bytes = mount.used_bytes - old_size + new_size;
        let file = self.files.entry(path).or_insert_with(|| SimFile {
            lines: Vec::new(),
            sized_bytes: 0,
            created_at: now,
            modified_at: now,
        });
        file.lines.drain(..drop);
        file.lines.push(line);
        file.sized_bytes = 0;
        file.modified_at = now;
        Ok(())
    }

    /// Append one line to a file, creating it if missing.
    pub fn append(
        &mut self,
        path: impl Into<String>,
        line: impl Into<String>,
        now: SimTime,
    ) -> Result<(), FsError> {
        let line = line.into();
        let entry = self.grow(path.into(), line.len() as u64 + 1, now)?;
        entry.lines.push(line);
        Ok(())
    }

    /// Append one line of `len` bytes whose content nothing reads (a
    /// runaway debug trace): space, errors and timestamps are exactly
    /// those of [`SimFs::append`] of such a line, but only its size is
    /// kept.
    pub fn append_sized(
        &mut self,
        path: impl Into<String>,
        len: u64,
        now: SimTime,
    ) -> Result<(), FsError> {
        self.grow(path.into(), len + 1, now)?.sized_bytes += len + 1;
        Ok(())
    }

    /// Charge `add` more bytes to the file at `path` (created if
    /// missing) and stamp it modified; the caller adds the content.
    fn grow(&mut self, path: String, add: u64, now: SimTime) -> Result<&mut SimFile, FsError> {
        let path = normalize(path);
        let mount = self.mount_with_room(&path, 0, add)?;
        mount.used_bytes += add;
        let entry = self.files.entry(path).or_insert_with(|| SimFile {
            lines: Vec::new(),
            sized_bytes: 0,
            created_at: now,
            modified_at: now,
        });
        entry.modified_at = now;
        Ok(entry)
    }

    /// Read a file.
    pub fn read(&self, path: &str) -> Result<&SimFile, FsError> {
        let path = normalize(path.to_string());
        if let Some(m) = self.mount_for(&path) {
            if !m.mounted {
                return Err(FsError::NotMounted(path));
            }
        }
        self.files.get(&path).ok_or(FsError::NotFound(path))
    }

    /// The stored file at `path` whatever the state of its mount: what
    /// an unmounted filesystem keeps until it is mounted again.
    pub fn stored(&self, path: &str) -> Option<&SimFile> {
        self.files.get(normalized(path).as_ref())
    }

    /// Does the path exist (and its filesystem is mounted)?
    pub fn exists(&self, path: &str) -> bool {
        self.read(path).is_ok()
    }

    /// Remove a file, freeing its space. Returns the removed file.
    pub fn remove(&mut self, path: &str) -> Result<SimFile, FsError> {
        let path = normalize(path.to_string());
        let file = self
            .files
            .remove(&path)
            .ok_or_else(|| FsError::NotFound(path.clone()))?;
        if let Some(m) = self.mount_for_mut(&path) {
            m.used_bytes = m.used_bytes.saturating_sub(file.size_bytes());
        }
        Ok(file)
    }

    /// List paths under a directory prefix (recursive), sorted. A range
    /// over the sorted keys that start with `dir`, so the cost follows
    /// what is listed, not what else is on the host.
    pub fn list(&self, dir: &str) -> Vec<&str> {
        let dir = normalized(dir);
        let dir = dir.as_ref();
        self.files
            .range::<str, _>((Bound::Included(dir), Bound::Unbounded))
            .map(|(p, _)| p.as_str())
            .take_while(|p| p.starts_with(dir))
            .filter(|p| covers(dir, p))
            .collect()
    }

    /// Remove every file under a directory prefix; returns the count.
    /// This is the agents' self-maintenance "remove flags from previous
    /// runs and old local dynamic service profiles".
    pub fn remove_dir(&mut self, dir: &str) -> usize {
        let paths: Vec<String> = self.list(dir).iter().map(|s| s.to_string()).collect();
        for p in &paths {
            let _ = self.remove(p);
        }
        paths.len()
    }

    /// Total bytes used on the filesystem covering `path`.
    pub fn used_bytes(&self, path: &str) -> Option<u64> {
        self.mount_for(path).map(|m| m.used_bytes)
    }
}

/// Normalise: ensure a single leading slash, strip any trailing slash
/// (except for the root itself).
fn normalize(mut p: String) -> String {
    if !p.starts_with('/') {
        p.insert(0, '/');
    }
    while p.len() > 1 && p.ends_with('/') {
        p.pop();
    }
    p
}

/// [`normalize`] that borrows a path that is already normal.
fn normalized(p: &str) -> Cow<'_, str> {
    if p.starts_with('/') && (p.len() == 1 || !p.ends_with('/')) {
        Cow::Borrowed(p)
    } else {
        Cow::Owned(normalize(p.to_string()))
    }
}

/// Does directory/mount `prefix` cover `path`? (Allocation-free: this
/// sits on the hot path of every agent flag write.)
fn covers(prefix: &str, path: &str) -> bool {
    if prefix == "/" {
        return true;
    }
    match path.strip_prefix(prefix) {
        Some("") => true,
        Some(rest) => rest.starts_with('/'),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t0() -> SimTime {
        SimTime::ZERO
    }

    #[test]
    fn write_read_roundtrip() {
        let mut fs = SimFs::with_standard_layout();
        fs.write("/logs/a.log", vec!["one".into(), "two".into()], t0())
            .unwrap();
        let f = fs.read("/logs/a.log").unwrap();
        assert_eq!(f.lines, vec!["one", "two"]);
        assert_eq!(f.size_bytes(), 8);
    }

    #[test]
    fn append_creates_and_grows() {
        let mut fs = SimFs::with_standard_layout();
        fs.append("/logs/x", "hello", t0()).unwrap();
        fs.append("/logs/x", "world", SimTime::from_secs(5))
            .unwrap();
        let f = fs.read("/logs/x").unwrap();
        assert_eq!(f.lines.len(), 2);
        assert_eq!(f.created_at, t0());
        assert_eq!(f.modified_at, SimTime::from_secs(5));
    }

    #[test]
    fn longest_prefix_mount_wins() {
        let mut fs = SimFs::new();
        fs.add_mount("/", 1000);
        fs.add_mount("/logs", 10);
        // A 20-byte file fits on / but not /logs.
        let big = vec!["x".repeat(19)];
        assert!(matches!(
            fs.write("/logs/big", big.clone(), t0()),
            Err(FsError::NoSpace(_))
        ));
        fs.write("/big", big, t0()).unwrap();
    }

    #[test]
    fn no_mount_is_an_error() {
        let mut fs = SimFs::new();
        assert!(matches!(
            fs.write("/x", vec![], t0()),
            Err(FsError::NoSuchMount(_))
        ));
    }

    #[test]
    fn disk_full_then_rotation_frees_space() {
        let mut fs = SimFs::new();
        fs.add_mount("/logs", 30);
        fs.append("/logs/old", "x".repeat(19), t0()).unwrap(); // 20 bytes
        assert!(matches!(
            fs.append("/logs/new", "y".repeat(19), t0()),
            Err(FsError::NoSpace(_))
        ));
        // The resource agent's repair: rotate (remove) old logs.
        fs.remove("/logs/old").unwrap();
        fs.append("/logs/new", "y".repeat(19), t0()).unwrap();
        assert!(fs.exists("/logs/new"));
    }

    #[test]
    fn usage_fraction_tracks_writes() {
        let mut fs = SimFs::new();
        fs.add_mount("/logs", 100);
        assert_eq!(fs.usage_fraction("/logs/a"), Some(0.0));
        fs.append("/logs/a", "x".repeat(49), t0()).unwrap(); // 50 bytes
        assert_eq!(fs.usage_fraction("/logs/a"), Some(0.5));
    }

    #[test]
    fn overwrite_reuses_space() {
        let mut fs = SimFs::new();
        fs.add_mount("/d", 25);
        fs.write("/d/f", vec!["x".repeat(19)], t0()).unwrap(); // 20 bytes
                                                               // Overwriting with the same size must succeed (not count double).
        fs.write("/d/f", vec!["y".repeat(19)], t0()).unwrap();
        assert_eq!(fs.read("/d/f").unwrap().lines[0], "y".repeat(19));
    }

    #[test]
    fn unmounted_filesystem_rejects_io_but_keeps_files() {
        let mut fs = SimFs::with_standard_layout();
        fs.write("/logs/f", vec!["data".into()], t0()).unwrap();
        assert!(fs.set_mounted("/logs", false));
        assert!(matches!(fs.read("/logs/f"), Err(FsError::NotMounted(_))));
        assert!(matches!(
            fs.append("/logs/f", "more", t0()),
            Err(FsError::NotMounted(_))
        ));
        assert!(!fs.exists("/logs/f"));
        fs.set_mounted("/logs", true);
        assert_eq!(fs.read("/logs/f").unwrap().lines, vec!["data"]);
    }

    #[test]
    fn list_and_remove_dir() {
        let mut fs = SimFs::with_standard_layout();
        fs.append("/logs/intelliagents/cpu/flag1", "ok", t0())
            .unwrap();
        fs.append("/logs/intelliagents/cpu/flag2", "ok", t0())
            .unwrap();
        fs.append("/logs/intelliagents/net/flag1", "ok", t0())
            .unwrap();
        assert_eq!(fs.list("/logs/intelliagents/cpu").len(), 2);
        assert_eq!(fs.list("/logs/intelliagents").len(), 3);
        // Sibling prefix must not match (cpu vs cpu2).
        fs.append("/logs/intelliagents/cpu2/flag", "ok", t0())
            .unwrap();
        assert_eq!(fs.list("/logs/intelliagents/cpu").len(), 2);
        assert_eq!(fs.remove_dir("/logs/intelliagents/cpu"), 2);
        assert_eq!(fs.list("/logs/intelliagents").len(), 2);
    }

    #[test]
    fn normalize_paths() {
        let mut fs = SimFs::with_standard_layout();
        fs.append("logs/a/", "x", t0()).unwrap();
        assert!(fs.exists("/logs/a"));
    }

    #[test]
    fn remove_missing_is_not_found() {
        let mut fs = SimFs::with_standard_layout();
        assert!(matches!(
            fs.remove("/logs/ghost"),
            Err(FsError::NotFound(_))
        ));
    }

    /// `list` before it became a range: filter every key through
    /// `covers`.
    fn list_by_filter<'a>(fs: &'a SimFs, dir: &str) -> Vec<&'a str> {
        let dir = normalize(dir.to_string());
        fs.files
            .keys()
            .filter(|p| covers(&dir, p))
            .map(|s| s.as_str())
            .collect()
    }

    #[test]
    fn list_equals_the_full_filter_over_random_trees() {
        const PARTS: [&str; 9] = ["logs", "cpu", "cpu-x", "cpu.d", "cpu2", "a", "ab", "z", "~"];
        let mut rng = intelliqos_simkern::SimRng::stream(7, "fs-list");
        for _ in 0..200 {
            let mut fs = SimFs::new();
            fs.add_mount("/", u64::MAX / 2);
            let mut dirs = vec!["/".to_string()];
            for _ in 0..rng.uniform_u64(0, 40) {
                let depth = rng.uniform_u64(1, 4);
                let path: String = (0..depth)
                    .map(|_| format!("/{}", rng.choose(&PARTS)))
                    .collect();
                fs.append(path.clone(), "x", t0()).unwrap();
                // Every prefix of a path is a directory worth listing,
                // including the file's own name and its siblings.
                let mut cut = path.as_str();
                while let Some(i) = cut.rfind('/').filter(|&i| i > 0) {
                    dirs.push(cut.to_string());
                    cut = &cut[..i];
                }
                dirs.push(cut.to_string());
            }
            dirs.extend(PARTS.iter().map(|p| format!("/logs/{p}/")));
            for dir in &dirs {
                assert_eq!(fs.list(dir), list_by_filter(&fs, dir), "list({dir})");
            }
        }
    }

    /// A file's lines and times, if it exists.
    type FileState = Option<(Vec<String>, SimTime, SimTime)>;

    /// What a reader can see of `path`: the file, and its mount's usage.
    fn state(fs: &SimFs, path: &str) -> (FileState, Option<u64>) {
        let file = fs
            .files
            .get(path)
            .map(|f| (f.lines.clone(), f.created_at, f.modified_at));
        (file, fs.used_bytes(path))
    }

    #[test]
    fn rotate_append_equals_write_of_the_window() {
        const CAP: usize = 4;
        let path = "/logs/perf/db000/os";
        let mut rng = intelliqos_simkern::SimRng::stream(3, "fs-rotate");
        for _ in 0..100 {
            let mut by_write = SimFs::new();
            by_write.add_mount("/logs", 120);
            let mut by_rotate = by_write.clone();
            let mut window: Vec<String> = Vec::new();
            // Whether the on-disk file holds the window: a failed write
            // leaves it stale, and the next one rewrites it whole.
            let mut synced = true;
            for step in 0..30u64 {
                let now = SimTime::from_secs(step);
                match rng.uniform_u64(0, 10) {
                    0 => {
                        let up = rng.chance(0.5);
                        by_write.set_mounted("/logs", up);
                        by_rotate.set_mounted("/logs", up);
                    }
                    1 => {
                        let filler = "f".repeat(rng.uniform_u64(0, 60) as usize);
                        let a = by_write.append("/logs/filler", filler.clone(), now);
                        assert_eq!(a, by_rotate.append("/logs/filler", filler, now));
                    }
                    2 => {
                        let a = by_write.remove("/logs/filler").map(|f| f.lines);
                        assert_eq!(a, by_rotate.remove("/logs/filler").map(|f| f.lines));
                    }
                    _ => {
                        let line = format!("t={step} v={}", rng.uniform_u64(0, 100_000));
                        window.push(line.clone());
                        if window.len() > CAP {
                            window.remove(0);
                        }
                        let w = by_write.write(path, window.clone(), now);
                        let r = if synced {
                            by_rotate.rotate_append(path, line, CAP, now)
                        } else {
                            by_rotate.write(path, window.clone(), now)
                        };
                        assert_eq!(w, r, "step {step}");
                        synced = r.is_ok();
                    }
                }
                assert_eq!(state(&by_write, path), state(&by_rotate, path));
            }
        }
    }

    #[test]
    fn rotate_append_reports_write_errors() {
        let mut fs = SimFs::new();
        fs.add_mount("/logs", 10);
        assert_eq!(
            fs.rotate_append("/logs/w", "x".repeat(10), 3, t0()),
            Err(FsError::NoSpace("/logs/w".into()))
        );
        fs.set_mounted("/logs", false);
        assert_eq!(
            fs.rotate_append("/logs/w", "x".into(), 3, t0()),
            Err(FsError::NotMounted("/logs/w".into()))
        );
        assert_eq!(
            fs.rotate_append("/elsewhere", "x".into(), 3, t0()),
            Err(FsError::NoSuchMount("/elsewhere".into()))
        );
        assert_eq!(fs.used_bytes("/logs"), Some(0));
    }
}
