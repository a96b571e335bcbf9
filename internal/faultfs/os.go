package faultfs

import (
	"io/fs"
	"os"
)

// OS is the production FS: every method is the corresponding os-package
// call.
type OS struct{}

func (OS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

func (OS) ReadDirNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names, nil
}

func (OS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (OS) OpenFile(path string, flag int, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (OS) Remove(path string) error             { return os.Remove(path) }
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
