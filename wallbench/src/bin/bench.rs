//! The benchmark binary; see `parquake_wallbench::cli`.

fn main() -> std::process::ExitCode {
    parquake_wallbench::cli::main()
}
