//! Sequential scans — the ground truth the chunked scan is tested against,
//! and the `p = 1` baseline of the paper's Table II.

/// In-place inclusive prefix sum (wrapping addition):
/// `data[i] = data[0] + … + data[i]`.
pub fn inclusive_scan_seq(data: &mut [u64]) {
    let mut acc = 0u64;
    for x in data.iter_mut() {
        acc = acc.wrapping_add(*x);
        *x = acc;
    }
}

/// In-place exclusive prefix sum (wrapping addition):
/// `data[i] = data[0] + … + data[i - 1]`. The CSR row-offset array is
/// exactly the exclusive prefix sum of the degree array.
pub fn exclusive_scan_seq(data: &mut [u64]) {
    let mut acc = 0u64;
    for x in data.iter_mut() {
        let next = acc.wrapping_add(*x);
        *x = acc;
        acc = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inclusive_basic() {
        let mut v = vec![1u64, 2, 3, 4];
        inclusive_scan_seq(&mut v);
        assert_eq!(v, [1, 3, 6, 10]);
    }

    #[test]
    fn exclusive_basic() {
        let mut v = vec![1u64, 2, 3, 4];
        exclusive_scan_seq(&mut v);
        assert_eq!(v, [0, 1, 3, 6]);
    }

    #[test]
    fn empty_and_singleton() {
        let mut empty: Vec<u64> = vec![];
        inclusive_scan_seq(&mut empty);
        exclusive_scan_seq(&mut empty);
        assert!(empty.is_empty());

        let mut one = vec![7u64];
        inclusive_scan_seq(&mut one);
        assert_eq!(one, [7]);
        exclusive_scan_seq(&mut one);
        assert_eq!(one, [0]);
    }

    #[test]
    fn exclusive_shifts_inclusive_by_one() {
        let orig = vec![5u64, 9, 2, 8, 1];
        let mut inc = orig.clone();
        inclusive_scan_seq(&mut inc);
        let mut exc = orig.clone();
        exclusive_scan_seq(&mut exc);
        assert_eq!(exc[0], 0);
        for i in 1..orig.len() {
            assert_eq!(exc[i], inc[i - 1]);
        }
    }

    #[test]
    fn wrapping_does_not_panic() {
        let mut v = vec![u64::MAX, 1, 1];
        inclusive_scan_seq(&mut v);
        assert_eq!(v, [u64::MAX, 0, 1]);
    }
}
