module github.com/tpset/tpset/benchmark

go 1.22

require github.com/tpset/tpset v0.0.0

replace github.com/tpset/tpset => ../
