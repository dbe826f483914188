//! Saving and loading a database to/from a directory.
//!
//! The paper trades "data capacity and persistence of storage" for DRAM
//! performance — GEMS assumes sources live on a parallel filesystem and
//! the database is rebuilt by ingest. This module implements exactly that
//! model: `save_dir` writes the catalog back out as a GraQL DDL script
//! (via the pretty-printer) plus one CSV per base table; `load_dir`
//! replays them. Graph views and named results are *not* persisted — they
//! regenerate from the definitions, which is the design's point.
//!
//! Saves are crash-safe. `save_dir` stages the whole snapshot in a
//! temporary sibling directory, fsyncs every file and the directory
//! itself, then commits with a rename — a crash at any point leaves the
//! previous snapshot loadable (mid-commit, the worst case is a leftover
//! `.old`/`.tmp` sibling next to an intact snapshot). Each snapshot
//! carries a `MANIFEST` of FNV-1a content checksums that [`load_dir`]
//! verifies before replaying anything, so a torn or tampered snapshot is
//! a typed [`GraqlError::Ingest`], never a half-loaded database.

use std::io::Write;
use std::path::{Path, PathBuf};

use graql_parser::ast;
use graql_types::failpoints::Faults;
use graql_types::{GraqlError, Result};

use crate::database::Database;

const CATALOG_FILE: &str = "catalog.graql";
const MANIFEST_FILE: &str = "MANIFEST";
const STATS_FILE: &str = "catalog.stats";

/// FNV-1a over a file's contents — the same cheap, dependency-free hash
/// failpoint handles use for site seeds. Not cryptographic; it
/// detects torn writes and bit rot, not adversaries.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Writes `bytes` to `path` and fsyncs the file, so the data is durable
/// before the commit rename makes it visible.
fn write_synced(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(bytes)?;
    f.sync_all()
}

/// Fsyncs a directory so that renames/creates inside it are durable.
/// Directory fsync is a unix-ism; elsewhere this is a best-effort no-op.
pub(crate) fn sync_dir(path: &Path) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        std::fs::File::open(path)?.sync_all()?;
    }
    #[cfg(not(unix))]
    let _ = path;
    Ok(())
}

/// Writes `db`'s schema (as GraQL DDL) and every base table (as CSV) into
/// `dir`, creating it if needed. The snapshot is staged in a temporary
/// sibling directory and committed atomically; on any error (including an
/// injected `core/persist/save-commit` fault) the previous contents of
/// `dir` are untouched. The `core/persist/*` sites consult `faults`.
pub fn save_dir(db: &Database, dir: &Path, faults: &Faults) -> Result<()> {
    graql_types::failpoint!(faults, "core/persist/save-io", GraqlError::ingest);
    let io = |e: std::io::Error| GraqlError::ingest(format!("save: {e}"));

    // Reconstruct the DDL script from the catalog.
    let mut script = ast::Script::default();
    let catalog = db.catalog();
    for name in catalog.table_names() {
        let schema = catalog.table(name).expect("listed tables exist");
        script
            .statements
            .push(ast::Stmt::CreateTable(ast::CreateTable {
                name: name.clone(),
                columns: schema
                    .columns()
                    .iter()
                    .map(|c| Ok((c.name.clone(), type_name(name, &c.name, c.dtype)?)))
                    .collect::<Result<Vec<_>>>()?,
                span: ast::Span::default(),
            }));
    }
    for name in catalog.vertex_names() {
        let def = catalog.vertex(name).expect("listed vertices exist");
        script
            .statements
            .push(ast::Stmt::CreateVertex(ast::CreateVertex {
                name: def.name.clone(),
                key: def.key.clone(),
                from_table: def.table.clone(),
                where_clause: def.where_clause.clone(),
                span: ast::Span::default(),
            }));
    }
    for name in catalog.edge_names() {
        let def = catalog.edge(name).expect("listed edges exist");
        script
            .statements
            .push(ast::Stmt::CreateEdge(ast::CreateEdge {
                name: def.name.clone(),
                source: ast::EdgeEndpoint {
                    vertex_type: def.src_type.clone(),
                    alias: def.src_alias.clone(),
                },
                target: ast::EdgeEndpoint {
                    vertex_type: def.tgt_type.clone(),
                    alias: def.tgt_alias.clone(),
                },
                from_tables: def.from_tables.clone(),
                where_clause: def.where_clause.clone(),
                span: ast::Span::default(),
            }));
    }
    // Ingest statements replay the data on load.
    for name in catalog.table_names() {
        script.statements.push(ast::Stmt::Ingest(ast::Ingest {
            table: name.clone(),
            path: format!("{name}.csv"),
            span: ast::Span::default(),
        }));
    }
    // Materialize every snapshot file in memory first, so any encoding
    // error aborts before a byte touches disk.
    let mut files: Vec<(String, Vec<u8>)> =
        vec![(CATALOG_FILE.to_string(), script.to_string().into_bytes())];
    for name in catalog.table_names() {
        let table = db.table(name).expect("catalog and storage are consistent");
        let mut buf = Vec::new();
        graql_table::csv::write_csv(table, &mut buf)?;
        files.push((format!("{name}.csv"), buf));
    }
    // The catalog statistics store rides along when populated, so a
    // loaded snapshot can feed degree-based lints and cost estimates
    // without rebuilding the graph first.
    if let Some(stats) = db.stats_ref() {
        files.push((STATS_FILE.to_string(), stats.to_text().into_bytes()));
    }
    let mut manifest = String::new();
    for (name, bytes) in &files {
        manifest.push_str(&format!("{:016x}  {name}\n", fnv1a64(bytes)));
    }

    // Stage in a sibling directory so the commit rename never crosses a
    // filesystem boundary.
    let staged = stage_paths(dir)?;
    if let Some(parent) = dir.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(io)?;
    }
    let _ = std::fs::remove_dir_all(&staged.tmp);
    std::fs::create_dir_all(&staged.tmp).map_err(io)?;
    let staged_result = (|| -> Result<()> {
        for (name, bytes) in &files {
            write_synced(&staged.tmp.join(name), bytes).map_err(io)?;
        }
        write_synced(&staged.tmp.join(MANIFEST_FILE), manifest.as_bytes()).map_err(io)?;
        sync_dir(&staged.tmp).map_err(io)?;
        // The fault site sits between "snapshot fully staged" and "commit
        // rename": a crash here must leave any previous snapshot intact.
        graql_types::failpoint!(faults, "core/persist/save-commit", GraqlError::ingest);
        commit(&staged, dir).map_err(io)
    })();
    if staged_result.is_err() {
        let _ = std::fs::remove_dir_all(&staged.tmp);
    }
    staged_result
}

struct StagePaths {
    tmp: PathBuf,
    old: PathBuf,
}

/// The temporary and graveyard siblings of `dir` used by the staged
/// commit. Process-id suffixes keep concurrent savers out of each other's
/// way.
fn stage_paths(dir: &Path) -> Result<StagePaths> {
    let name = dir
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| GraqlError::ingest(format!("save: bad snapshot path {}", dir.display())))?;
    let parent = dir.parent().unwrap_or(Path::new("."));
    let pid = std::process::id();
    Ok(StagePaths {
        tmp: parent.join(format!("{name}.tmp.{pid}")),
        old: parent.join(format!("{name}.old.{pid}")),
    })
}

/// Swaps the staged snapshot into place. `rename` cannot replace a
/// non-empty directory, so an existing snapshot is moved aside first; the
/// window between the two renames is the only non-atomic instant, and a
/// crash inside it leaves the complete old snapshot under `.old.<pid>`
/// rather than losing data.
fn commit(staged: &StagePaths, dir: &Path) -> std::io::Result<()> {
    let had_old = dir.exists();
    if had_old {
        std::fs::rename(dir, &staged.old)?;
    }
    std::fs::rename(&staged.tmp, dir)?;
    sync_dir(dir.parent().unwrap_or(Path::new(".")))?;
    if had_old {
        std::fs::remove_dir_all(&staged.old)?;
    }
    Ok(())
}

/// Loads a database previously written by [`save_dir`].
///
/// If the snapshot carries a `MANIFEST` (every snapshot written by this
/// version does), each listed file's FNV-1a checksum is verified before a
/// single statement is replayed; a missing or corrupt file is a typed
/// [`GraqlError::Ingest`]. Manifest-less directories are accepted as
/// legacy/hand-authored snapshots and loaded unverified.
pub fn load_dir(dir: &Path, faults: &Faults) -> Result<Database> {
    graql_types::failpoint!(faults, "core/persist/load-io", GraqlError::ingest);
    if let Ok(manifest) = std::fs::read_to_string(dir.join(MANIFEST_FILE)) {
        verify_manifest(dir, &manifest)?;
    }
    let script = std::fs::read_to_string(dir.join(CATALOG_FILE))
        .map_err(|e| GraqlError::ingest(format!("load: {e}")))?;
    let mut db = Database::new();
    db.set_data_dir(dir);
    db.execute_script(&script)?;
    // Statistics are optional (older snapshots don't carry them); when
    // present they restore the degree/NDV store without a graph build.
    if let Ok(text) = std::fs::read_to_string(dir.join(STATS_FILE)) {
        db.install_catalog_stats(crate::catalog::CatalogStats::parse(&text)?);
    }
    Ok(db)
}

fn verify_manifest(dir: &Path, manifest: &str) -> Result<()> {
    for line in manifest.lines().filter(|l| !l.trim().is_empty()) {
        let (want, name) = line
            .split_once("  ")
            .ok_or_else(|| GraqlError::ingest(format!("load: malformed manifest line {line:?}")))?;
        let want = u64::from_str_radix(want, 16)
            .map_err(|_| GraqlError::ingest(format!("load: malformed manifest line {line:?}")))?;
        let bytes = std::fs::read(dir.join(name)).map_err(|e| {
            GraqlError::ingest(format!("load: torn snapshot: cannot read {name}: {e}"))
        })?;
        let got = fnv1a64(&bytes);
        if got != want {
            return Err(GraqlError::ingest(format!(
                "load: torn snapshot: {name} checksum mismatch \
                 (manifest {want:016x}, file {got:016x})"
            )));
        }
    }
    Ok(())
}

/// Maps a catalog column type back to DDL. Inferred string columns carry
/// the internal width-0 sentinel (`varchar(0)`), which the grammar cannot
/// express — persisting it as `varchar(1)` would silently change the
/// schema on round-trip, so it is rejected instead.
fn type_name(table: &str, col: &str, dt: graql_types::DataType) -> Result<ast::TypeName> {
    match dt {
        graql_types::DataType::Integer => Ok(ast::TypeName::Integer),
        graql_types::DataType::Float => Ok(ast::TypeName::Float),
        graql_types::DataType::Varchar(0) => Err(GraqlError::ingest(format!(
            "save: column {table}.{col} has an inferred string type (varchar width 0) \
             that DDL cannot express; declare an explicit varchar(n) width"
        ))),
        graql_types::DataType::Varchar(n) => Ok(ast::TypeName::Varchar(n)),
        graql_types::DataType::Date => Ok(ast::TypeName::Date),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("graql_persist_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn sample() -> Database {
        let mut db = Database::new();
        db.execute_script(
            "create table P(id varchar(8), parent varchar(8), score float, born date)
             create vertex PV(id) from table P where score > 0.0
             create edge up with vertices (PV as A, PV as B) where A.parent = B.id",
        )
        .unwrap();
        db.ingest_str(
            "P",
            "a,,1.5,2001-01-01\nb,a,2.25,2002-02-02\nc,a,-1.0,2003-03-03\n\"d,x\",b,0.5,2004-04-04\n",
        )
        .unwrap();
        db
    }

    #[test]
    fn save_load_round_trip() {
        let dir = tmpdir("rt");
        let mut db = sample();
        save_dir(&db, &dir, &Faults::default()).unwrap();
        let mut back = load_dir(&dir, &Faults::default()).unwrap();
        // Tables equal.
        let (t1, t2) = (db.table("P").unwrap(), back.table("P").unwrap());
        assert_eq!(t1.n_rows(), t2.n_rows());
        for r in 0..t1.n_rows() {
            assert_eq!(t1.row(r), t2.row(r), "row {r}");
        }
        // Views regenerate identically — including the vertex filter
        // (score > 0 excludes c) and the FK edge.
        let g1 = db.graph().unwrap();
        let n1 = (g1.n_vertices(), g1.n_edges());
        let g2 = back.graph().unwrap();
        assert_eq!(n1, (g2.n_vertices(), g2.n_edges()));
        assert_eq!(g2.vset(g2.vtype("PV").unwrap()).len(), 3, "c filtered out");
        // And queries agree.
        let q = "select B.id from graph PV() --up--> def B: PV()";
        let crate::database::StmtOutput::Table(r1) = db.execute_str(q).unwrap() else {
            panic!()
        };
        let crate::database::StmtOutput::Table(r2) = back.execute_str(q).unwrap() else {
            panic!()
        };
        assert_eq!(r1.n_rows(), r2.n_rows());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn saved_catalog_is_valid_graql() {
        let dir = tmpdir("ddl");
        save_dir(&sample(), &dir, &Faults::default()).unwrap();
        let text = std::fs::read_to_string(dir.join(CATALOG_FILE)).unwrap();
        let script = graql_parser::parse(&text).unwrap();
        // 1 table + 1 vertex + 1 edge + 1 ingest.
        assert_eq!(script.statements.len(), 4);
        assert!(
            text.contains("where score > 0.0"),
            "filters persist: {text}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_missing_dir_fails_cleanly() {
        let err =
            load_dir(Path::new("/nonexistent-graql-persist"), &Faults::default()).unwrap_err();
        assert!(matches!(err, GraqlError::Ingest(_)));
    }

    #[test]
    fn save_writes_manifest_and_load_verifies_it() {
        let dir = tmpdir("manifest");
        save_dir(&sample(), &dir, &Faults::default()).unwrap();
        let manifest = std::fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
        assert!(manifest.contains("catalog.graql"), "{manifest}");
        assert!(manifest.contains("P.csv"), "{manifest}");
        load_dir(&dir, &Faults::default()).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_snapshot_is_a_typed_error() {
        let dir = tmpdir("torn");
        save_dir(&sample(), &dir, &Faults::default()).unwrap();
        // Tear the data file the way a crash mid-write would: truncate it.
        let csv = dir.join("P.csv");
        let bytes = std::fs::read(&csv).unwrap();
        std::fs::write(&csv, &bytes[..bytes.len() / 2]).unwrap();
        let err = load_dir(&dir, &Faults::default()).unwrap_err();
        assert!(matches!(err, GraqlError::Ingest(_)), "{err}");
        assert!(err.to_string().contains("torn snapshot"), "{err}");
        // A missing file is the same class of failure.
        std::fs::remove_file(&csv).unwrap();
        let err = load_dir(&dir, &Faults::default()).unwrap_err();
        assert!(err.to_string().contains("torn snapshot"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_replaces_previous_snapshot_atomically() {
        let dir = tmpdir("replace");
        let mut db = sample();
        save_dir(&db, &dir, &Faults::default()).unwrap();
        db.ingest_str("P", "e,a,9.0,2005-05-05\n").unwrap();
        save_dir(&db, &dir, &Faults::default()).unwrap();
        let back = load_dir(&dir, &Faults::default()).unwrap();
        assert_eq!(back.table("P").unwrap().n_rows(), 5);
        // No staging litter survives a successful save. (Only this
        // snapshot's siblings: concurrent tests stage their own.)
        let prefix = format!("{}.", dir.file_name().unwrap().to_string_lossy());
        for entry in std::fs::read_dir(dir.parent().unwrap()).unwrap() {
            let name = entry.unwrap().file_name().to_string_lossy().into_owned();
            assert!(!name.starts_with(&prefix), "staging litter: {name}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn inferred_varchar0_is_rejected_not_widened() {
        // The grammar cannot write `varchar(0)`, so persisting the
        // internal sentinel would corrupt the schema on round-trip.
        let err = type_name("T", "c", graql_types::DataType::Varchar(0)).unwrap_err();
        assert!(matches!(err, GraqlError::Ingest(_)));
        assert!(err.to_string().contains("T.c"), "{err}");
        assert_eq!(
            type_name("T", "c", graql_types::DataType::Varchar(7)).unwrap(),
            ast::TypeName::Varchar(7)
        );
    }

    /// The crash-safety contract: a save that dies after staging but
    /// before the commit rename leaves the previous snapshot fully
    /// loadable and no staging directory behind.
    #[cfg(feature = "failpoints")]
    #[test]
    fn crash_during_save_keeps_old_snapshot() {
        let dir = tmpdir("crash");
        let mut db = sample();
        save_dir(&db, &dir, &Faults::default()).unwrap();
        db.ingest_str("P", "e,a,9.0,2005-05-05\n").unwrap();
        let faults = Faults::default();
        faults.arm("core/persist/save-commit", "1*err", 0).unwrap();
        let err = save_dir(&db, &dir, &faults).unwrap_err();
        assert_eq!(faults.fired_count("core/persist/save-commit"), 1);
        assert!(matches!(err, GraqlError::Ingest(_)), "{err}");
        // The old 4-row snapshot survives, checksums intact.
        let back = load_dir(&dir, &Faults::default()).unwrap();
        assert_eq!(back.table("P").unwrap().n_rows(), 4);
        assert!(
            !dir.parent()
                .unwrap()
                .join(format!(
                    "{}.tmp.{}",
                    dir.file_name().unwrap().to_string_lossy(),
                    std::process::id()
                ))
                .exists(),
            "staging dir cleaned up after failed commit"
        );
        // And a retry (the one-shot fault is spent) commits the new
        // snapshot.
        save_dir(&db, &dir, &faults).unwrap();
        let back = load_dir(&dir, &Faults::default()).unwrap();
        assert_eq!(back.table("P").unwrap().n_rows(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn results_are_not_persisted() {
        let dir = tmpdir("res");
        let mut db = sample();
        db.execute_str("select id from table P into table Snapshot")
            .unwrap();
        assert!(db.result_table("Snapshot").is_some());
        save_dir(&db, &dir, &Faults::default()).unwrap();
        let back = load_dir(&dir, &Faults::default()).unwrap();
        assert!(
            back.result_table("Snapshot").is_none(),
            "results regenerate, not persist"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
