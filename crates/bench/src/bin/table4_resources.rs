//! Table 4: resource usage (FLOP per step, memory) of PCG, Tompson and
//! Smart-fluidnet.

fn main() {
    let env = sfn_bench::bench_env();
    let grid = 64;
    println!("== Table 4: resource usage at {grid}x{grid} ==\n");
    let rows = sfn_bench::experiments::resources::table4(&env, grid);
    println!("{}", sfn_bench::experiments::resources::render_table4(&rows, grid));
}
