//! Cfg fixture (clean): items compiled only for tests are exempt.

#[cfg(test)]
pub fn test_only() -> Vec<u64> {
    Vec::new()
}

#[cfg(all(test, unix))]
pub fn test_on_unix() -> String {
    format!("test")
}

#[test]
fn a_test() {
    let _ = [1u64].to_vec();
}
