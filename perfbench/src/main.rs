//! `munin-perfbench`: see the library docs. Started with `--connect`, the
//! same binary runs one `munin-node` of a TCP world instead, so the
//! coordinator and its children always come from one build.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--connect") {
        std::process::exit(node(&args));
    }
    // Point the TCP fabric's child spawner at this binary before any
    // thread exists.
    if let Ok(exe) = std::env::current_exe() {
        std::env::set_var("MUNIN_NODE_BIN", exe);
    }
    std::process::exit(munin_perfbench::cli(&args));
}

/// `--connect <addr> --node <index>`: one node of a distributed run.
fn node(args: &[String]) -> i32 {
    let mut it = args.iter();
    let (mut connect, mut node) = (None, None);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--connect" => connect = it.next().cloned(),
            "--node" => node = it.next().and_then(|v| v.parse::<u16>().ok()),
            other => {
                eprintln!("munin-perfbench node: unknown argument `{other}`");
                return 2;
            }
        }
    }
    let (Some(connect), Some(node)) = (connect, node) else {
        eprintln!("usage: munin-perfbench --connect <addr> --node <index>");
        return 2;
    };
    munin_tcp::node::run_node(&connect, node, &munin_api::node_protos())
}
