//! Minimal argument parsing shared by the experiment binaries.
//!
//! Every figure binary accepts:
//!
//! * `--ops N` — measured operations (default: a laptop-friendly scale).
//! * `--scale F` — multiply the default op count by `F`.
//! * `--seed S` — workload RNG seed.
//! * `--value-bytes B` — value size (default 1024, the paper's setting).
//! * `--csv` — machine-readable output instead of markdown tables.
//!
//! Paper-scale runs are `--ops 10000000` (and patience).

/// Parsed common flags.
#[derive(Debug, Clone)]
pub struct CommonArgs {
    /// Measured operations per run.
    pub ops: u64,
    /// Workload seed.
    pub seed: u64,
    /// Value payload size.
    pub value_bytes: usize,
    /// Emit CSV instead of a markdown table.
    pub csv: bool,
}

impl CommonArgs {
    /// Parses `std::env::args`, using `default_ops` as the base op count.
    pub fn parse(default_ops: u64) -> Self {
        Self::from_iter(default_ops, std::env::args().skip(1))
    }

    /// Parses from an explicit iterator (testable).
    pub fn from_iter(default_ops: u64, args: impl IntoIterator<Item = String>) -> Self {
        let mut out = CommonArgs {
            ops: default_ops,
            seed: 0x5eed,
            value_bytes: 1024,
            csv: false,
        };
        let mut scale = 1.0f64;
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            let mut grab = |name: &str| -> String {
                iter.next()
                    .unwrap_or_else(|| panic!("{name} needs a value"))
            };
            match arg.as_str() {
                "--ops" => out.ops = grab("--ops").parse().expect("--ops: integer"),
                "--scale" => scale = grab("--scale").parse().expect("--scale: float"),
                "--seed" => out.seed = grab("--seed").parse().expect("--seed: integer"),
                "--value-bytes" => {
                    out.value_bytes = grab("--value-bytes")
                        .parse()
                        .expect("--value-bytes: integer")
                }
                "--csv" => out.csv = true,
                "--help" | "-h" => {
                    eprintln!("flags: --ops N  --scale F  --seed S  --value-bytes B  --csv");
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other}"),
            }
        }
        out.ops = ((out.ops as f64 * scale).round() as u64).max(1);
        out
    }

    /// The workload key codec implied by these args (16-byte keys).
    pub fn codec(&self) -> ldc_workload::KeyCodec {
        ldc_workload::KeyCodec::new(16, self.value_bytes)
    }
}

/// A subcommand's arguments. Each extractor removes what it matched, and
/// [`Flags::common`] hands the remainder to [`CommonArgs::from_iter`], so
/// a flag nobody extracted is still fatal.
pub struct Flags(Vec<String>);

impl Flags {
    pub fn new(args: impl IntoIterator<Item = String>) -> Self {
        Flags(args.into_iter().collect())
    }

    /// Removes the boolean flag `name`; true when it was present.
    pub fn flag(&mut self, name: &str) -> bool {
        let at = self.0.iter().position(|a| a == name);
        at.map(|at| self.0.remove(at)).is_some()
    }

    /// Removes `name VALUE` and parses the value.
    pub fn value<T: std::str::FromStr>(&mut self, name: &str) -> Option<T> {
        let at = self.0.iter().position(|a| a == name)?;
        let raw: Vec<String> = self.0.drain(at..(at + 2).min(self.0.len())).collect();
        let parsed = raw.get(1).and_then(|v| v.parse().ok());
        Some(parsed.unwrap_or_else(|| panic!("{name} needs a valid value")))
    }

    /// Parses everything not extracted as the common flags.
    pub fn common(self, default_ops: u64) -> CommonArgs {
        CommonArgs::from_iter(default_ops, self.0)
    }
}

/// Prints a markdown table (or CSV when `csv` is set).
pub fn print_table(csv: bool, title: &str, headers: &[&str], rows: &[Vec<String>]) {
    if csv {
        println!("# {title}");
        println!("{}", headers.join(","));
        for row in rows {
            println!("{}", row.join(","));
        }
        return;
    }
    println!("\n## {title}\n");
    println!("| {} |", headers.join(" | "));
    println!(
        "|{}|",
        headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
}

/// Formats bytes as mebibytes with two decimals.
pub fn mib(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / (1024.0 * 1024.0))
}

/// Formats a ratio as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> CommonArgs {
        CommonArgs::from_iter(1000, list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = args(&[]);
        assert_eq!(a.ops, 1000);
        assert_eq!(a.value_bytes, 1024);
        assert!(!a.csv);
    }

    #[test]
    fn flags_override() {
        let a = args(&[
            "--ops",
            "5000",
            "--seed",
            "7",
            "--csv",
            "--value-bytes",
            "64",
        ]);
        assert_eq!(a.ops, 5000);
        assert_eq!(a.seed, 7);
        assert!(a.csv);
        assert_eq!(a.value_bytes, 64);
    }

    #[test]
    fn scale_multiplies_ops() {
        let a = args(&["--scale", "2.5"]);
        assert_eq!(a.ops, 2500);
        let b = args(&["--ops", "100", "--scale", "0.001"]);
        assert_eq!(b.ops, 1); // floors at 1
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn rejects_unknown_flags() {
        args(&["--bogus"]);
    }

    #[test]
    fn flags_extract_and_leave_common_flags() {
        let list = ["--seed", "7", "--k", "3", "--quick", "--ops", "50"];
        let mut f = Flags::new(list.iter().map(|s| s.to_string()));
        assert_eq!(f.value::<usize>("--k"), Some(3));
        assert_eq!(f.value::<String>("--out"), None);
        assert!(f.flag("--quick") && !f.flag("--quick"));
        let a = f.common(1000);
        assert_eq!((a.seed, a.ops), (7, 50));
    }

    #[test]
    #[should_panic(expected = "--k needs a valid value")]
    fn flags_name_the_flag_with_a_bad_value() {
        Flags::new(["--k".to_string(), "x".to_string()]).value::<usize>("--k");
    }

    #[test]
    #[should_panic(expected = "unknown flag --bogus")]
    fn flags_leave_unknown_flags_fatal() {
        Flags::new(["--bogus".to_string()]).common(1000);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(mib(2 * 1024 * 1024), "2.00");
        assert_eq!(pct(0.1234), "12.3%");
    }
}
