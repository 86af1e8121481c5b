use mgopt_demo::{grouped, Gauge};

fn main() {
    let gauge = Gauge(1.5);
    println!("{}", grouped::scale(gauge.0));
}
