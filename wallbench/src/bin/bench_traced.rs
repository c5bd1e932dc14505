//! `bench` with the counting allocator installed: runs the per-layer
//! (traced) passes, where `protocol.reply_allocs` needs exact counts.

use parquake_wallbench::alloc_count::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() -> std::process::ExitCode {
    parquake_wallbench::cli::main()
}
