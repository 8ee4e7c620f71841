//go:build unix

package store

import "syscall"

// writable reports whether this process may create files in the existing
// directory dir (access(2) with W_OK|X_OK).
func writable(dir string) error { return syscall.Access(dir, 0x2|0x1) }
