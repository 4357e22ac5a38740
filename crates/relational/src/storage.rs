//! On-disk persistence for databases: one wire-format file per table.
//!
//! The wire format already round-trips feeds exactly (with integrity
//! checksums), so a persisted database is simply a directory of `.feed`
//! files plus a small manifest. This is what lets the CLI shred a document
//! once and run many exchanges against the same source, the way the
//! paper's experiments reuse a loaded MySQL instance across runs.
//!
//! Each file is sealed by the feed's `#sum` line, and [`load`] names the
//! file whose line is missing (a file cut short) or does not verify.
//! The line is the word sum ([`crate::sum`]); a directory saved while it
//! was FNV-1a fails to load — every file is a checksum mismatch — and
//! must be saved again from its source document.

use crate::db::Database;
use crate::error::{Error, Result};
use crate::feed::Feed;
use std::fs;
use std::io::Write as _;
use std::path::Path;

/// File extension for persisted feeds.
const FEED_EXT: &str = "feed";
/// Manifest file name.
const MANIFEST: &str = "MANIFEST";

/// Serializes table names for the manifest (one per line; names are
/// fragment names, which never contain newlines).
fn manifest_body(db: &Database) -> String {
    let mut out = format!("xdx-database\t{}\n", db.name);
    for name in db.table_names() {
        out.push_str(name);
        out.push('\n');
    }
    out
}

/// A table name is used as a file name; fragment names are `[A-Z0-9_.]`
/// by construction, but be defensive about separators.
fn file_name_for(table: &str) -> String {
    let safe: String = table
        .chars()
        .map(|c| if c == '/' || c == '\\' { '_' } else { c })
        .collect();
    format!("{safe}.{FEED_EXT}")
}

/// Persists `db` into `dir` (created if missing; existing feed files are
/// replaced). Returns the number of tables written.
pub fn save(db: &Database, dir: &Path) -> Result<usize> {
    fs::create_dir_all(dir).map_err(|e| Error::Decode {
        detail: format!("create {dir:?}: {e}"),
    })?;
    let mut written = 0;
    for name in db.table_names() {
        let table = db.table(name)?;
        let path = dir.join(file_name_for(name));
        let mut file = fs::File::create(&path).map_err(|e| Error::Decode {
            detail: format!("create {path:?}: {e}"),
        })?;
        file.write_all(table.data.to_wire().as_bytes())
            .map_err(|e| Error::Decode {
                detail: format!("write {path:?}: {e}"),
            })?;
        written += 1;
    }
    fs::write(dir.join(MANIFEST), manifest_body(db)).map_err(|e| Error::Decode {
        detail: format!("write manifest: {e}"),
    })?;
    Ok(written)
}

/// Loads a database persisted by [`save`].
pub fn load(dir: &Path) -> Result<Database> {
    let manifest = fs::read_to_string(dir.join(MANIFEST)).map_err(|e| Error::Decode {
        detail: format!("read manifest in {dir:?}: {e}"),
    })?;
    let mut lines = manifest.lines();
    let header = lines.next().unwrap_or_default();
    let name = header
        .strip_prefix("xdx-database\t")
        .ok_or_else(|| Error::Decode {
            detail: "not an xdx database directory (bad manifest header)".into(),
        })?;
    let mut db = Database::new(name);
    for table in lines {
        if table.is_empty() {
            continue;
        }
        let path = dir.join(file_name_for(table));
        let text = fs::read_to_string(&path).map_err(|e| Error::Decode {
            detail: format!("read {path:?}: {e}"),
        })?;
        let feed = Feed::from_sealed_wire(&text).map_err(|e| match e {
            Error::Decode { detail } => Error::Decode {
                detail: format!("{path:?}: {detail}"),
            },
            other => other,
        })?;
        db.load(table, feed)?;
    }
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feed::{ColRole, FeedColumn, FeedSchema};
    use crate::value::{Dewey, Value};

    fn sample_db() -> Database {
        let mut db = Database::new("persisted");
        for (tname, rows) in [("ALPHA", 3u32), ("BETA_GAMMA", 5)] {
            let schema = FeedSchema::new(
                "e",
                vec![
                    FeedColumn::new("e", ColRole::ParentRef),
                    FeedColumn::new("e", ColRole::NodeId),
                    FeedColumn::new("v", ColRole::Value),
                ],
            );
            let mut f = Feed::new(schema);
            for i in 1..=rows {
                f.push_row(vec![
                    Value::Dewey(Dewey::root()),
                    Value::Dewey(Dewey::from([i])),
                    Value::Str(format!("{tname}-{i} with\ttab and \\slash").into()),
                ])
                .unwrap();
            }
            db.load(tname, f).unwrap();
        }
        db
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("xdx-storage-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = tmpdir("roundtrip");
        let db = sample_db();
        assert_eq!(save(&db, &dir).unwrap(), 2);
        let loaded = load(&dir).unwrap();
        assert_eq!(loaded.name, "persisted");
        assert_eq!(loaded.table_names(), db.table_names());
        for t in db.table_names() {
            assert_eq!(
                loaded.table(t).unwrap().data,
                db.table(t).unwrap().data,
                "table {t}"
            );
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_rejects_non_database_dirs() {
        let dir = tmpdir("bad");
        fs::create_dir_all(&dir).unwrap();
        assert!(load(&dir).is_err()); // no manifest
        fs::write(dir.join(MANIFEST), "something else\n").unwrap();
        assert!(load(&dir).is_err()); // wrong header
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_feed_file_fails_loudly() {
        let dir = tmpdir("corrupt");
        let db = sample_db();
        save(&db, &dir).unwrap();
        // Damage one stored feed.
        let victim = dir.join(file_name_for("ALPHA"));
        let mut text = fs::read_to_string(&victim).unwrap();
        text = text.replace("ALPHA-1", "ALPHA-X");
        fs::write(&victim, text).unwrap();
        let err = load(&dir).unwrap_err();
        assert!(err.to_string().contains("corrupted"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_feed_file_is_named() {
        let dir = tmpdir("named");
        save(&sample_db(), &dir).unwrap();
        let victim = dir.join(file_name_for("ALPHA"));
        let text = fs::read_to_string(&victim).unwrap();
        fs::write(&victim, text.replace("ALPHA-2", "ALPHA-Y")).unwrap();
        let err = load(&dir).unwrap_err().to_string();
        assert!(err.contains("ALPHA.feed"), "{err}");
        assert!(err.contains("checksum mismatch"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_feed_file_is_named() {
        let dir = tmpdir("truncated");
        let db = sample_db();
        save(&db, &dir).unwrap();
        // Lose the last two rows together with the seal: what is left
        // is a well-formed, shorter feed.
        let victim = dir.join(file_name_for("BETA_GAMMA"));
        let text = fs::read_to_string(&victim).unwrap();
        let cut = text.find("BETA_GAMMA-4").unwrap();
        let row_start = text[..cut].rfind('\n').unwrap() + 1;
        fs::write(&victim, &text[..row_start]).unwrap();
        let err = load(&dir).unwrap_err().to_string();
        assert!(err.contains("BETA_GAMMA.feed"), "{err}");
        assert!(err.contains("cut short"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resave_overwrites() {
        let dir = tmpdir("resave");
        let db = sample_db();
        save(&db, &dir).unwrap();
        save(&db, &dir).unwrap(); // idempotent
        let loaded = load(&dir).unwrap();
        assert_eq!(loaded.total_rows(), db.total_rows());
        fs::remove_dir_all(&dir).ok();
    }
}
