//! `sfn_serve_demo` — a foreground multi-tenant simulation server for
//! poking the serving surface by hand (or from a script):
//!
//! ```text
//! SFN_SERVE_ADDR=127.0.0.1:9910 sfn_serve_demo
//! printf 'POST /simulate HTTP/1.1\r\nX-Tenant: acme\r\nX-Deadline-Ms: 500\r\nContent-Length: 21\r\n\r\n{"grid":16,"steps":8}' \
//!   | nc 127.0.0.1 9910
//! curl -s http://127.0.0.1:9910/stats.json
//! ```
//!
//! `SFN_SERVE_ADDR` picks the bind address (default `127.0.0.1:9910`);
//! every other tunable is `ServeConfig::default()`. `SFN_FAULTS` arms
//! serving-path chaos. The process serves until killed. Exit code 2
//! means the bind failed.

use smart_fluidnet::serve::{serve, ServeConfig};
use smart_fluidnet::faults;
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    sfn_obs::init();
    faults::init_from_env();
    // The library default of port 0 is right for tests but useless for
    // a demo you want to address from another shell.
    let addr = std::env::var("SFN_SERVE_ADDR").unwrap_or_else(|_| "127.0.0.1:9910".into());
    let Ok(server) = serve(ServeConfig { addr, ..ServeConfig::default() }) else {
        eprintln!("sfn_serve_demo: SFN_SERVE_ADDR must name a bindable address");
        return ExitCode::from(2);
    };
    println!("serving http://{} (POST /simulate, GET /stats.json)", server.addr);
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
