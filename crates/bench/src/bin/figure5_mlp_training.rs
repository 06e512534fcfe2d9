//! Figure 5: training losses of the five MLP topologies.

fn main() {
    let env = sfn_bench::bench_env();
    let steps = env.offline.mlp_steps;
    println!("== Figure 5: MLP1-MLP5 training losses ({steps} steps) ==\n");
    let f = sfn_bench::experiments::construction::figure5(&env, steps);
    println!("{}", f.render());
}
