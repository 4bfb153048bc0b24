//! Table 1 analog: lines of code per component of this reproduction
//! (the paper reports 67,352 lines of Java/C++ across λFS, benchmark
//! drivers, λIndexFS, and scripts).

use lambda_bench::loc::{inventory, workspace_root};
use lambda_bench::{print_table, Args};

pub fn run(_args: &Args) {
    let entries = inventory(&workspace_root());
    let mut rows: Vec<Vec<String>> = entries
        .iter()
        .map(|e| vec![e.component.clone(), e.files.to_string(), e.lines.to_string()])
        .collect();
    let total_lines: usize = entries.iter().map(|e| e.lines).sum();
    let total_files: usize = entries.iter().map(|e| e.files).sum();
    rows.push(vec!["TOTAL".into(), total_files.to_string(), total_lines.to_string()]);
    print_table(
        "Table 1 (reproduction): Rust lines of code per component",
        &["component", "files", "non-empty lines"],
        &rows,
    );
    println!("\npaper (Table 1): 67,352 LoC of Java/C++ total; λFS itself 36,685.");
}
