//! An in-memory disk for the durable nodes of `durable_churn`.
//!
//! Appends extend a buffer and a sync does nothing, as on tmpfs: the
//! engine's WAL framing, commit groups, checkpoints and snapshot renames all
//! run, but neither device latency nor a simulator's bookkeeping is added to
//! the measured calls. The disk also counts the bytes appended to each
//! directory's `wal-<epoch>` files, so WAL volume is exact across
//! checkpoints.

use std::collections::{BTreeSet, HashMap};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use mdv_relstore::{Vfs, VfsFile};

#[derive(Default)]
struct Disk {
    dirs: BTreeSet<PathBuf>,
    files: HashMap<PathBuf, Vec<u8>>,
    wal_appended: HashMap<PathBuf, u64>,
}

/// A cheap-clone handle on one in-memory disk.
#[derive(Clone, Default)]
pub struct MemDisk(Arc<Mutex<Disk>>);

impl MemDisk {
    fn lock(&self) -> MutexGuard<'_, Disk> {
        self.0.lock().expect("in-memory disk lock")
    }

    /// Bytes ever appended to the WAL files of `dir`, over all epochs.
    pub fn wal_bytes(&self, dir: &Path) -> u64 {
        self.lock().wal_appended.get(dir).copied().unwrap_or(0)
    }
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, path.display().to_string())
}

/// An open file of a [`MemDisk`].
pub struct MemFile {
    disk: MemDisk,
    path: PathBuf,
    /// The directory whose WAL byte count this file adds to, if it is a WAL.
    wal_dir: Option<PathBuf>,
}

impl VfsFile for MemFile {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        let mut disk = self.disk.lock();
        disk.files
            .entry(self.path.clone())
            .or_default()
            .extend_from_slice(data);
        if let Some(dir) = &self.wal_dir {
            *disk.wal_appended.entry(dir.clone()).or_default() += data.len() as u64;
        }
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        let mut disk = self.disk.lock();
        let file = disk
            .files
            .get_mut(&self.path)
            .ok_or_else(|| not_found(&self.path))?;
        file.truncate(len as usize);
        Ok(())
    }
}

impl Vfs for MemDisk {
    type File = MemFile;

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        let mut disk = self.lock();
        for d in dir.ancestors() {
            disk.dirs.insert(d.to_owned());
        }
        Ok(())
    }

    fn open_append(&self, path: &Path, truncate: bool) -> io::Result<MemFile> {
        {
            let mut disk = self.lock();
            let file = disk.files.entry(path.to_owned()).or_default();
            if truncate {
                file.clear();
            }
        }
        let is_wal = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with("wal-"));
        Ok(MemFile {
            disk: self.clone(),
            path: path.to_owned(),
            wal_dir: is_wal.then(|| path.parent().unwrap_or(Path::new("")).to_owned()),
        })
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.lock()
            .files
            .get(path)
            .cloned()
            .ok_or_else(|| not_found(path))
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.lock().files.insert(path.to_owned(), data.to_vec());
        Ok(())
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        if self.lock().files.contains_key(path) {
            Ok(())
        } else {
            Err(not_found(path))
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut disk = self.lock();
        let data = disk.files.remove(from).ok_or_else(|| not_found(from))?;
        disk.files.insert(to.to_owned(), data);
        Ok(())
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.lock()
            .files
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| not_found(path))
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        let disk = self.lock();
        if !disk.dirs.contains(dir) {
            return Err(not_found(dir));
        }
        Ok(disk
            .files
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .filter_map(|p| p.file_name()?.to_str().map(str::to_owned))
            .collect())
    }
}
