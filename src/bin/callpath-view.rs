//! `callpath-view` — present an experiment database in any of the three
//! views, with sorting, hot-path analysis, derived metrics and
//! flattening: the `hpcviewer` step as a CLI.
//!
//! ```text
//! callpath-view s3d.cpdb --view ccv --hot
//! callpath-view s3d.cpdb --derived 'waste=$1*4-$3' --view flat --flatten 3 --sort-name waste
//! callpath-view pf.xml --view callers --levels 2
//! ```

use callpath_core::prelude::*;
use callpath_viewer::{render, render_hot_path, ExpandMode, RenderConfig};
use std::process::ExitCode;

const USAGE: &str = "\
callpath-view: present a call path profile database

USAGE:
    callpath-view <FILE> [OPTIONS]

OPTIONS:
    --view <ccv|callers|flat>   which view to present [default: ccv]
    --list-columns              print the metric columns and exit
    --sort <N>                  sort by column index [default: 0]
    --sort-name <NAME>          sort by column name
    --columns <N,N,...>         show only these column indices
    --derived <NAME=FORMULA>    add a derived metric (repeatable);
                                formulas use $n / @n column references
    --hot                       run hot path analysis from the top instead
                                of rendering the whole view
    --threshold <T>             hot path threshold in (0,1] [default: 0.5]
    --levels <N>                expand only N levels
    --flatten <N>               flat view: strip N hierarchy layers
    --top <N>                   show at most N children per scope [default: 100]
    -i, --interactive           drive the viewer with commands from stdin
                                (type 'help' inside for the command list)
    --stats                     dump instrumentation counters/spans as JSON
                                on stderr after the run
    --self-profile <FILE>       write the tool's own recorded profile as a
                                .cpdb database (open it with callpath-view)
    -h, --help                  print this help
";

const REPL_HELP: &str = "\
commands (scopes are addressed by their [row] number):
    ccv | callers | flat     switch view
    expand N | x N           expand a visible scope
    collapse N | c N         collapse a scope
    select N | s N           select a scope (shows its source below)
    hot                      hot path from the selection (or the top)
    find TEXT                search by name, expand ancestors, select
    zoom N / unzoom          restrict the view to a subtree / back
    flatten / unflatten      flat view: strip / restore a hierarchy layer
    sort N                   sort by column index
    namesort on|off          sort scopes alphabetically instead
    hide N / show N          hide / show a metric column
    threshold T              hot-path threshold in (0,1]
    help                     this text
    quit                     exit
";

struct Args {
    file: String,
    view: String,
    interactive: bool,
    list_columns: bool,
    sort: Option<u32>,
    sort_name: Option<String>,
    columns: Vec<u32>,
    derived: Vec<(String, String)>,
    hot: bool,
    threshold: f64,
    levels: Option<usize>,
    flatten: usize,
    top: usize,
    stats: bool,
    self_profile: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        file: String::new(),
        view: "ccv".into(),
        interactive: false,
        list_columns: false,
        sort: None,
        sort_name: None,
        columns: Vec::new(),
        derived: Vec::new(),
        hot: false,
        threshold: 0.5,
        levels: None,
        flatten: 0,
        top: 100,
        stats: false,
        self_profile: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match a.as_str() {
            "--view" => args.view = value("--view")?,
            "--list-columns" => args.list_columns = true,
            "--sort" => {
                args.sort = Some(
                    value("--sort")?
                        .parse()
                        .map_err(|_| "--sort must be a column index".to_owned())?,
                )
            }
            "--sort-name" => args.sort_name = Some(value("--sort-name")?),
            "--columns" => {
                args.columns = value("--columns")?
                    .split(',')
                    .map(|s| s.trim().parse().map_err(|_| format!("bad column '{s}'")))
                    .collect::<Result<_, _>>()?
            }
            "--derived" => {
                let spec = value("--derived")?;
                let (name, formula) = spec
                    .split_once('=')
                    .ok_or_else(|| "--derived expects NAME=FORMULA".to_owned())?;
                args.derived.push((name.to_owned(), formula.to_owned()));
            }
            "--hot" => args.hot = true,
            "--stats" => args.stats = true,
            "--self-profile" => args.self_profile = Some(value("--self-profile")?),
            "-i" | "--interactive" => args.interactive = true,
            "--threshold" => {
                args.threshold = value("--threshold")?
                    .parse()
                    .map_err(|_| "--threshold must be a number".to_owned())?
            }
            "--levels" => {
                args.levels = Some(
                    value("--levels")?
                        .parse()
                        .map_err(|_| "--levels must be an integer".to_owned())?,
                )
            }
            "--flatten" => {
                args.flatten = value("--flatten")?
                    .parse()
                    .map_err(|_| "--flatten must be an integer".to_owned())?
            }
            "--top" => {
                args.top = value("--top")?
                    .parse()
                    .map_err(|_| "--top must be an integer".to_owned())?
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other if args.file.is_empty() && !other.starts_with('-') => {
                args.file = other.to_owned()
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.file.is_empty() {
        return Err("an input file is required".into());
    }
    if !(args.threshold > 0.0 && args.threshold <= 1.0) {
        return Err("--threshold must be in (0, 1]".into());
    }
    Ok(args)
}

/// Write to stdout, tolerating a closed pipe: under `callpath-view … |
/// head` the reader goes away mid-render, and the right behavior is to
/// stop quietly (no panic, no error text), not to spray diagnostics.
/// Returns `false` once stdout is gone; callers stop rendering then.
fn emit(text: &str) -> bool {
    use std::io::Write;
    let mut stdout = std::io::stdout().lock();
    match stdout
        .write_all(text.as_bytes())
        .and_then(|_| stdout.flush())
    {
        Ok(()) => true,
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => false,
        Err(e) => {
            eprintln!("error: cannot write to stdout: {e}");
            false
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let mut exp =
        callpath_expdb::open_path(std::path::Path::new(&args.file)).map_err(|e| e.to_string())?;
    for (name, formula) in &args.derived {
        exp.add_derived(name, formula)
            .map_err(|e| format!("derived metric '{name}': {e}"))?;
    }

    for &i in &args.columns {
        if i as usize >= exp.columns.column_count() {
            return Err(format!(
                "column {i} out of range: the database has {} columns (try --list-columns)",
                exp.columns.column_count()
            ));
        }
    }

    let result = present(&args, &mut exp);
    if let Some(path) = &args.self_profile {
        callpath::cli::write_self_profile(path)?;
    }
    if args.stats {
        callpath::cli::emit_stats(Some(&exp));
    }
    result
}

fn present(args: &Args, exp: &mut Experiment) -> Result<ExitCode, String> {
    if args.list_columns {
        for (i, d) in exp.columns.descs().iter().enumerate() {
            if !emit(&format!("{i:>3}  {}\n", d.name)) {
                break;
            }
        }
        return Ok(ExitCode::SUCCESS);
    }

    if args.interactive {
        return repl(exp);
    }

    let sort = match (&args.sort_name, args.sort) {
        (Some(name), _) => Some(
            exp.columns
                .find(name)
                .ok_or_else(|| format!("no column named '{name}' (try --list-columns)"))?,
        ),
        (None, Some(i)) => {
            if i as usize >= exp.columns.column_count() {
                return Err(format!("column {i} out of range (try --list-columns)"));
            }
            Some(ColumnId(i))
        }
        (None, None) => Some(ColumnId(0)),
    };

    let cfg = RenderConfig {
        sort,
        columns: args.columns.iter().map(|&i| ColumnId(i)).collect(),
        expand: match args.levels {
            Some(n) => ExpandMode::Levels(n),
            None => ExpandMode::All,
        },
        max_children: args.top,
        ..Default::default()
    };

    let mut view = match args.view.as_str() {
        "ccv" => View::calling_context(exp),
        "callers" => View::callers(exp),
        "flat" => View::flat(exp),
        other => return Err(format!("unknown view '{other}' (ccv|callers|flat)")),
    };

    if args.hot {
        let mut roots = view.roots();
        let col = sort.unwrap_or(ColumnId(0));
        sort_by_column(&view, &mut roots, col);
        let start = *roots
            .first()
            .ok_or_else(|| "the view is empty".to_owned())?;
        emit(&render_hot_path(
            &mut view,
            start,
            col,
            HotPathConfig::with_threshold(args.threshold),
            &cfg,
        ));
        return Ok(ExitCode::SUCCESS);
    }

    if args.flatten > 0 {
        if args.view != "flat" {
            return Err("--flatten applies to --view flat".into());
        }
        if let View::Flat { exp, view: flat } = &mut view {
            let roots = flat.tree.roots();
            let level = flat.flatten(exp, &roots, args.flatten);
            let ids: Vec<u32> = level.iter().map(|n| n.0).collect();
            emit(&callpath_viewer::render_flattened(&mut view, &ids, &cfg));
            return Ok(ExitCode::SUCCESS);
        }
    }

    emit(&render(&mut view, &cfg));
    Ok(ExitCode::SUCCESS)
}

/// The interactive shell: a line-oriented front end over
/// [`callpath_viewer::Session`]. Scopes are addressed by the row numbers
/// the renderer prints, so the top-down discipline holds: only visible
/// rows can be acted on.
///
/// Output contract: renders go to stdout; the banner, help text and
/// command errors go to stderr, so piping stdout yields clean view
/// text. When stdin is not a terminal (a scripted run), any failed
/// command makes the final exit status nonzero — matching batch mode.
fn repl(exp: &Experiment) -> Result<ExitCode, String> {
    use callpath_viewer::{Command, Session};
    use std::io::{BufRead, IsTerminal};

    let mut session = Session::new(exp, callpath_core::source::SourceStore::new());
    let (text, mut rows) = session.render_numbered();
    if !emit(&format!("{text}\n")) {
        return Ok(ExitCode::SUCCESS);
    }
    eprintln!("(interactive mode; 'help' lists commands)");
    let mut failed = false;

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        let mut parts = line.split_whitespace();
        let Some(cmd) = parts.next() else { continue };
        let arg = parts.next();
        let row_node = |rows: &[u32], a: Option<&str>| -> Result<u32, String> {
            let i: usize = a
                .ok_or("expected a row number")?
                .parse()
                .map_err(|_| "expected a row number".to_owned())?;
            rows.get(i).copied().ok_or_else(|| format!("no row {i}"))
        };
        let result = match cmd {
            "quit" | "q" | "exit" => break,
            "help" | "h" | "?" => {
                eprintln!("{REPL_HELP}");
                continue;
            }
            "ccv" => session.apply(Command::SwitchView(ViewKind::CallingContext)),
            "callers" => session.apply(Command::SwitchView(ViewKind::Callers)),
            "flat" => session.apply(Command::SwitchView(ViewKind::Flat)),
            "expand" | "x" => row_node(&rows, arg).and_then(|n| session.apply(Command::Expand(n))),
            "collapse" | "c" => {
                row_node(&rows, arg).and_then(|n| session.apply(Command::Collapse(n)))
            }
            "select" | "s" => row_node(&rows, arg).and_then(|n| session.apply(Command::Select(n))),
            "zoom" => row_node(&rows, arg).and_then(|n| session.apply(Command::Zoom(n))),
            "unzoom" => session.apply(Command::Unzoom),
            "hot" => session.apply(Command::HotPath),
            "find" => match arg {
                Some(needle) => session.apply(Command::Find(needle.to_owned())),
                None => Err("find needs a search string".into()),
            },
            "flatten" => session.apply(Command::Flatten),
            "unflatten" => session.apply(Command::Unflatten),
            "sort" => arg
                .and_then(|a| a.parse().ok())
                .ok_or("sort needs a column index".to_owned())
                .and_then(|c| session.apply(Command::SortBy(ColumnId(c)))),
            "namesort" => session.apply(Command::SortByName(arg == Some("on"))),
            "hide" => arg
                .and_then(|a| a.parse().ok())
                .ok_or("hide needs a column index".to_owned())
                .and_then(|c| session.apply(Command::HideColumn(ColumnId(c)))),
            "show" => arg
                .and_then(|a| a.parse().ok())
                .ok_or("show needs a column index".to_owned())
                .and_then(|c| session.apply(Command::ShowColumn(ColumnId(c)))),
            "threshold" => arg
                .and_then(|a| a.parse().ok())
                .ok_or("threshold needs a number".to_owned())
                .and_then(|t| session.apply(Command::SetThreshold(t))),
            other => Err(format!("unknown command '{other}' (try 'help')")),
        };
        if let Err(e) = result {
            eprintln!("error: {e}");
            failed = true;
            continue;
        }
        let (text, new_rows) = session.render_numbered();
        rows = new_rows;
        if !emit(&format!("{text}\n")) {
            break;
        }
    }
    // Interactive typos are forgiven; a failed command in a piped
    // script is a failed run.
    if failed && !std::io::stdin().is_terminal() {
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
