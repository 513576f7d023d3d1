//! DESIGN.md's lists of code, held to the tree.
//!
//! The parts of DESIGN.md that name code are checked against the files
//! they describe, so that a moved module, crate or benchmark import fails
//! here instead of drifting:
//!
//! * §3's inventory names only module paths and items that exist;
//! * §5's tree lists exactly the workspace members (each crate with its
//!   package name and its `pps-*` dependencies) plus `ppsbench/`;
//! * §5's surfaces table is each crate's `lib.rs`: its `pub mod` lines, its
//!   `mod` lines and the names its root `pub use` lines export;
//! * "The benchmark's surface" lists, one per line, the paths that
//!   `scripts/census.sh` counts as `items named by ppsbench` (the pin
//!   extracts them by the script's rule and checks the script's count);
//! * every citation of a DESIGN.md section (`§` and a number) or heading
//!   (a quoted title after `DESIGN.md,`) in the code, the scripts, the CI
//!   files and the other documents names a heading that exists.
//!
//! The pins read the files at run time and edit nothing (`ppsbench/` is
//! read, never built or changed).

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: impl AsRef<Path>) -> String {
    let path = root().join(path);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn design() -> String {
    read("DESIGN.md")
}

/// The body of DESIGN.md's section `## {n}. …`, up to the next `## `.
fn section(design: &str, n: u32) -> &str {
    let start = format!("\n## {n}. ");
    let (_, body) = design
        .split_once(&start)
        .unwrap_or_else(|| panic!("DESIGN.md has no section {n}"));
    body.split("\n## ").next().unwrap_or_default()
}

/// The lines of the first fenced block after `after` in `text`.
fn fenced_after<'a>(text: &'a str, after: &str) -> Vec<&'a str> {
    let (_, rest) = text
        .split_once(after)
        .unwrap_or_else(|| panic!("DESIGN.md has no {after:?}"));
    rest.lines()
        .skip_while(|l| !l.starts_with("```"))
        .skip(1)
        .take_while(|l| !l.starts_with("```"))
        .collect()
}

/// The code spans (`…`) of a piece of markdown.
fn spans(text: &str) -> Vec<&str> {
    text.split('`').skip(1).step_by(2).collect()
}

/// The cells of a markdown table row, `|` stripped and trimmed.
fn cells(row: &str) -> Vec<&str> {
    let inner = row.trim().trim_start_matches('|').trim_end_matches('|');
    inner.split('|').map(str::trim).collect()
}

/// One crate of the workspace: its directory under `crates/`, package
/// name and the `pps-*` packages of its `[dependencies]`.
struct Krate {
    dir: String,
    package: String,
    deps: Vec<String>,
}

fn workspace() -> Vec<Krate> {
    let mut crates = Vec::new();
    for entry in fs::read_dir(root().join("crates")).expect("crates/") {
        let dir = entry.expect("a crates/ entry").file_name();
        let dir = dir.to_string_lossy().into_owned();
        let manifest = read(format!("crates/{dir}/Cargo.toml"));
        let (mut package, mut deps, mut table) = (None, Vec::new(), "");
        for line in manifest.lines().map(str::trim) {
            if line.starts_with('[') {
                table = line;
            } else if table == "[package]" && package.is_none() {
                if let Some(name) = line.strip_prefix("name = ") {
                    package = Some(name.trim_matches('"').to_string());
                }
            } else if table == "[dependencies]" && line.starts_with("pps-") {
                let name = line.split(['.', ' ', '=']).next().unwrap_or_default();
                deps.push(name.to_string());
            }
        }
        let package = package.unwrap_or_else(|| panic!("crates/{dir} has no package name"));
        crates.push(Krate { dir, package, deps });
    }
    crates.sort_by(|a, b| a.dir.cmp(&b.dir));
    crates
}

fn dir_of<'a>(crates: &'a [Krate], package: &str) -> &'a str {
    let krate = crates.iter().find(|k| k.package == package);
    &krate
        .unwrap_or_else(|| panic!("no crate is named {package}"))
        .dir
}

#[test]
fn crate_tree_lists_the_workspace_members_and_ppsbench() {
    let design = design();
    let tree = fenced_after(section(&design, 5), "Crate architecture");
    let crates = workspace();
    let mut listed = BTreeMap::new();
    let mut others = BTreeSet::new();
    for line in tree
        .iter()
        .filter(|l| l.starts_with("  ") && !l.starts_with("   "))
    {
        let words: Vec<&str> = line.split_whitespace().collect();
        match words[0].strip_prefix("crates/") {
            Some(dir) => {
                assert_eq!(words.get(2), Some(&"deps:"), "{line}");
                let deps: BTreeSet<String> = words[3..]
                    .join(" ")
                    .split(',')
                    .map(str::trim)
                    .filter(|d| *d != "—")
                    .map(String::from)
                    .collect();
                listed.insert(dir.trim_end_matches('/').to_string(), (words[1], deps));
            }
            None => {
                others.insert(words[0]);
            }
        }
    }
    let on_disk: BTreeSet<&str> = crates.iter().map(|k| k.dir.as_str()).collect();
    let in_tree: BTreeSet<&str> = listed.keys().map(String::as_str).collect();
    assert_eq!(in_tree, on_disk, "the crates under crates/");
    for krate in &crates {
        let (package, deps) = &listed[&krate.dir];
        assert_eq!(*package, krate.package, "crates/{}", krate.dir);
        let want: BTreeSet<String> = krate
            .deps
            .iter()
            .map(|d| dir_of(&crates, d).to_string())
            .collect();
        assert_eq!(deps, &want, "the dependencies of {}", krate.package);
    }
    // The root package's directories and the benchmark's package.
    let want: BTreeSet<&str> = ["src/", "tests/", "ppsbench/"].into();
    assert_eq!(others, want, "the tree's other entries");
}

/// The `pub mod` lines, `mod` lines and root re-exports of a `lib.rs`.
fn surface(lib: &str) -> [BTreeSet<String>; 3] {
    let mut surface: [BTreeSet<String>; 3] = Default::default();
    for line in lib.lines() {
        let declared = |prefix| line.strip_prefix(prefix)?.strip_suffix(';');
        if let Some(name) = declared("pub mod ") {
            surface[0].insert(name.to_string());
        } else if let Some(name) = declared("mod ") {
            surface[1].insert(name.to_string());
        }
    }
    // A root `pub use` starts a line and runs to its `;`.
    for statement in lib.split(';') {
        let statement = format!("\n{}", statement.trim_start());
        let Some((_, path)) = statement.rsplit_once("\npub use ") else {
            continue;
        };
        let names: Vec<&str> = match path.split_once('{') {
            Some((_, group)) => group.trim_end_matches('}').split(',').collect(),
            None => vec![path],
        };
        for name in names.iter().map(|n| n.trim()).filter(|n| !n.is_empty()) {
            surface[2].insert(name.rsplit("::").next().unwrap_or(name).to_string());
        }
    }
    surface
}

#[test]
fn crate_surfaces_table_matches_each_lib_rs() {
    let design = design();
    let (_, table) = section(&design, 5)
        .split_once("### Crate surfaces")
        .expect("§5 has the surfaces table");
    let crates = workspace();
    let mut rows = BTreeSet::new();
    for row in table.lines().filter(|l| l.starts_with("| `pps-")) {
        let cells = cells(row);
        let package = spans(cells[0])[0];
        let dir = dir_of(&crates, package);
        let lib = read(format!("crates/{dir}/src/lib.rs"));
        let what = ["`pub mod`", "private `mod`", "root re-exports"];
        for (i, actual) in surface(&lib).into_iter().enumerate() {
            let listed: BTreeSet<String> =
                spans(cells[i + 1]).into_iter().map(String::from).collect();
            assert_eq!(listed, actual, "{package}: {}", what[i]);
        }
        rows.insert(package);
    }
    let all: BTreeSet<&str> = crates.iter().map(|k| k.package.as_str()).collect();
    assert_eq!(rows, all, "one row per crate");
}

/// The `pps_*` paths the non-comment lines of `ppsbench/src` name, with
/// `a::{b, self}` expanded to `a::b` and `a` — the census rule.
fn named_by_ppsbench() -> BTreeSet<String> {
    const CRATES: [&str; 10] = [
        "analysis",
        "chaos",
        "core",
        "crossbar",
        "experiments",
        "reference",
        "switch",
        "telemetry",
        "traffic",
        "workload",
    ];
    let dir = root().join("ppsbench/src");
    let mut files: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("ppsbench/src")
        .map(|e| e.expect("a ppsbench/src entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    files.sort();
    let mut text = String::new();
    for file in files {
        let source = fs::read_to_string(&file).expect("a ppsbench source");
        for line in source.lines().filter(|l| !l.trim_start().starts_with("//")) {
            text.push_str(line);
            text.push(' ');
        }
    }
    let word = |c: char| c.is_ascii_alphabetic() || c == '_';
    let mut paths = BTreeSet::new();
    let mut rest = text.as_str();
    while let Some(at) = rest.find("pps_") {
        let tail = &rest[at..];
        rest = &rest[at + 4..];
        let crate_name: String = tail[4..].chars().take_while(|&c| word(c)).collect();
        if !CRATES.contains(&crate_name.as_str()) {
            continue;
        }
        let mut path = format!("pps_{crate_name}");
        let mut after = &tail[path.len()..];
        while let Some(next) = after.strip_prefix("::") {
            if let Some(group) = next.strip_prefix('{') {
                let group = group.split('}').next().unwrap_or_default();
                for item in group.split(',') {
                    let item: String = item.chars().filter(|c| !c.is_whitespace()).collect();
                    match item.as_str() {
                        "" => {}
                        "self" => {
                            paths.insert(path.clone());
                        }
                        item => {
                            paths.insert(format!("{path}::{item}"));
                        }
                    }
                }
                path.clear();
                break;
            }
            let ident: String = next.chars().take_while(|&c| word(c)).collect();
            if ident.is_empty() {
                break;
            }
            path = format!("{path}::{ident}");
            after = &next[ident.len()..];
        }
        if !path.is_empty() {
            paths.insert(path);
        }
    }
    paths
}

#[test]
fn benchmark_surface_lists_what_census_counts() {
    let design = design();
    let listed: BTreeSet<String> = fenced_after(&design, "### The benchmark's surface")
        .into_iter()
        .map(String::from)
        .collect();
    let named = named_by_ppsbench();
    assert_eq!(listed, named);
    // The census script counts the same set.
    let census = Command::new("sh")
        .arg(root().join("scripts/census.sh"))
        .arg(root())
        .output()
        .expect("sh runs scripts/census.sh");
    let census = String::from_utf8_lossy(&census.stdout);
    let counted = census
        .lines()
        .find_map(|l| l.strip_prefix("items named by ppsbench"))
        .expect("census prints `items named by ppsbench`");
    assert_eq!(counted.trim(), named.len().to_string());
}

/// The `.rs` files of a module: the file itself, and for a directory
/// module (`lib.rs`, `mod.rs`) every file below it.
fn module_files(file: &Path) -> Vec<PathBuf> {
    let name = file.file_name().and_then(|n| n.to_str());
    if !matches!(name, Some("lib.rs" | "mod.rs")) {
        return vec![file.to_path_buf()];
    }
    let mut files = Vec::new();
    files_under(file.parent().expect("a module directory"), &mut files);
    files.retain(|f| f.extension().is_some_and(|x| x == "rs"));
    files
}

/// Whether `source` declares an item called `name`.
fn declares(source: &str, name: &str) -> bool {
    ["fn", "struct", "enum", "trait", "type", "const", "mod"]
        .iter()
        .any(|kw| {
            let decl = format!("{kw} {name}");
            source.match_indices(&decl).any(|(at, _)| {
                let next = source[at + decl.len()..].chars().next();
                !next.is_some_and(|c| c.is_alphanumeric() || c == '_')
            })
        })
}

/// Resolve `pps-crate::module::…::Item` to files: every lowercase segment
/// before the first item is a module with a file, and the first segment
/// that is not a module is an item its module declares.
fn resolve(crates: &[Krate], path: &str) -> Result<(), String> {
    let (path, group) = match path.split_once("::{") {
        Some((base, group)) => (base, group.trim_end_matches('}').split(',').collect()),
        None => (path, Vec::new()),
    };
    let mut segments = path.split("::");
    let package = segments.next().unwrap_or_default();
    let mut dir = root()
        .join("crates")
        .join(dir_of(crates, package))
        .join("src");
    let mut file = dir.join("lib.rs");
    let mut items: Vec<&str> = Vec::new();
    for segment in segments {
        let as_file = dir.join(format!("{segment}.rs"));
        let as_dir = dir.join(segment).join("mod.rs");
        if let Some(found) = [as_file, as_dir].into_iter().find(|p| p.is_file()) {
            dir = dir.join(segment);
            file = found;
        } else {
            items.push(segment);
            break;
        }
    }
    items.extend(group.iter().map(|s| s.trim()));
    let sources: Vec<String> = module_files(&file)
        .iter()
        .map(|f| fs::read_to_string(f).expect("a source file"))
        .collect();
    for item in items {
        if !sources.iter().any(|s| declares(s, item)) {
            return Err(format!("{path}: no item {item} in {}", file.display()));
        }
    }
    Ok(())
}

#[test]
fn inventory_module_paths_exist() {
    let design = design();
    let crates = workspace();
    let mut checked = 0;
    for row in section(&design, 3).lines().filter(|l| l.starts_with("| S")) {
        let cells = cells(row);
        for span in spans(cells[2]) {
            if span.starts_with("pps-") {
                resolve(&crates, span).unwrap_or_else(|e| panic!("§3 {}: {e}", cells[0]));
            } else {
                let path = span.trim_end_matches('/');
                assert!(root().join(path).is_dir(), "§3 {}: no {span}", cells[0]);
            }
            checked += 1;
        }
    }
    assert!(checked >= 40, "only {checked} paths found in §3");
}

/// The text of `source` with line breaks and comment markers folded to
/// single spaces, so a citation wrapped over two comment lines reads as one.
fn unwrapped(source: &str) -> String {
    let lines = source.lines().map(|line| {
        let line = line.trim_start();
        let line = ["//!", "///", "//", "#"]
            .iter()
            .find_map(|marker| line.strip_prefix(marker))
            .unwrap_or(line);
        line.trim_start_matches('#').trim()
    });
    lines.collect::<Vec<_>>().join(" ")
}

/// The citations of DESIGN.md in `text`: `§N` sections and quoted headings.
fn citations(text: &str) -> Vec<String> {
    let mut found = Vec::new();
    for (at, _) in text.match_indices("DESIGN") {
        let rest = &text[at + "DESIGN".len()..];
        let rest = rest.strip_prefix(".md").unwrap_or(rest);
        let rest = rest.strip_prefix(',').unwrap_or(rest);
        // A citation is separated from the file name (`DESIGN.md")` is not one).
        if !rest.starts_with(char::is_whitespace) {
            continue;
        }
        let rest = rest.trim_start();
        if let Some(number) = rest.strip_prefix('§') {
            let digits: String = number.chars().take_while(char::is_ascii_digit).collect();
            if !digits.is_empty() {
                found.push(format!("§{digits}"));
            }
        } else if let Some(quoted) = rest.strip_prefix('"') {
            if let Some((heading, _)) = quoted.split_once('"') {
                found.push(heading.to_string());
            }
        }
    }
    found
}

fn files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("a directory entry").path();
        if path.is_dir() {
            files_under(&path, out);
        } else {
            out.push(path);
        }
    }
}

#[test]
fn every_design_citation_names_a_heading() {
    let design = design();
    let mut headings = BTreeSet::new();
    for line in design
        .lines()
        .filter(|l| l.starts_with("## ") || l.starts_with("### "))
    {
        let title = line.trim_start_matches('#').trim();
        if let Some((number, rest)) = title.split_once(". ") {
            if number.chars().all(|c| c.is_ascii_digit()) {
                headings.insert(format!("§{number}"));
                headings.insert(rest.to_string());
            }
        }
        headings.insert(title.to_string());
    }
    let mut files = Vec::new();
    for dir in ["crates", "tests", "scripts", ".github", ".claude"] {
        files_under(&root().join(dir), &mut files);
    }
    for doc in ["README.md", "EXPERIMENTS.md", "ROADMAP.md"] {
        files.push(root().join(doc));
    }
    let (mut checked, mut dangling) = (0, Vec::new());
    for file in &files {
        let Ok(source) = fs::read_to_string(file) else {
            continue;
        };
        for cited in citations(&unwrapped(&source)) {
            if !headings.contains(&cited) {
                let name = file.strip_prefix(root()).unwrap_or(file);
                dangling.push(format!("{}: {cited}", name.display()));
            }
            checked += 1;
        }
    }
    assert!(
        dangling.is_empty(),
        "citations of no heading: {dangling:#?}"
    );
    assert!(checked >= 40, "only {checked} citations found");
}
