module github.com/avfi/avfi/bench

go 1.24

require github.com/avfi/avfi v0.0.0

replace github.com/avfi/avfi => ../
