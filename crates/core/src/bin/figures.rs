//! Regenerate the paper's evaluation tables.
//!
//! ```text
//! cargo run -p dsnet --release --bin figures            # everything
//! cargo run -p dsnet --release --bin figures -- fig8    # one figure
//! cargo run -p dsnet --release --bin figures -- --quick # reduced sweep
//! cargo run -p dsnet --release --bin figures -- --csv fig10
//! ```
//!
//! The accepted ids are those of `dsnet::experiments::ALL`, plus `all`.

use dsnet::experiments::{self, SweepConfig};

fn usage() -> ! {
    let ids: Vec<&str> = experiments::ALL.iter().map(|&(id, _)| id).collect();
    eprintln!(
        "usage: figures [--quick] [--csv] [--out DIR] [{}|all]",
        ids.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut quick = false;
    let mut csv = false;
    let mut out_dir: Option<String> = None;
    let mut which: Vec<String> = Vec::new();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--csv" => csv = true,
            "--out" => out_dir = Some(argv.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => usage(),
            other => which.push(other.to_string()),
        }
    }
    if which.is_empty() {
        which.push("all".to_string());
    }
    let cfg = if quick {
        SweepConfig::quick()
    } else {
        SweepConfig::default()
    };

    let mut tables = Vec::new();
    for name in &which {
        if name == "all" {
            tables.extend(experiments::all_tables(&cfg));
            continue;
        }
        match experiments::ALL.iter().find(|&&(id, _)| id == name) {
            Some((_, run)) => tables.push(run(&cfg)),
            None => usage(),
        }
    }

    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    for t in &tables {
        let rendered = if csv { t.to_csv() } else { t.to_markdown() };
        if let Some(dir) = &out_dir {
            // File name: the experiment id at the front of the title
            // ("Fig. 10 — ..." → fig10, "E5 — ..." → e5).
            let id: String = t
                .title
                .chars()
                .take_while(|&c| c != '—')
                .filter(|c| c.is_ascii_alphanumeric())
                .collect::<String>()
                .to_lowercase();
            let ext = if csv { "csv" } else { "md" };
            let path = format!("{dir}/{id}.{ext}");
            std::fs::write(&path, &rendered).expect("write table file");
            eprintln!("wrote {path}");
        }
        if csv {
            println!("# {}", t.title);
            print!("{rendered}");
            println!();
        } else {
            println!("{rendered}");
        }
    }
}
