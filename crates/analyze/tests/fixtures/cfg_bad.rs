//! Cfg fixture (bad): attributes that mention `test` but leave the
//! item compiled into production builds, so every rule still applies.

#[cfg(not(test))]
pub fn prod_only(xs: &[u64]) -> usize {
    xs.to_vec().len()
}

#[cfg_attr(test, allow(dead_code))]
pub fn always_compiled() -> String {
    format!("hot")
}

#[cfg(any(test, unix))]
pub fn maybe_unix() -> Vec<u64> {
    Vec::new()
}
