//! Seeded violations of the escape-hatch grammar itself: every broken
//! `lint: allow` form must surface as a `malformed-allow` diagnostic,
//! so a typo can never silently disable enforcement.

pub fn f() -> usize {
    // lint: allow(no-panic-serving)
    let a = 1;
    // lint: allow(no-such-lint) reason text
    let b = 2;
    // lint: allow no-panic-serving no parentheses
    let c = 3;
    a + b + c
}
