//go:build !check

package check_test

const sanitizerForced = false
