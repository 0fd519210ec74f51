//go:build check

package check_test

// sanitizerForced mirrors sweep's autoCheck: under -tags=check every
// sweep engine runs sanitized and ignores its warm store.
const sanitizerForced = true
