module scanshare/benchmark

go 1.23

require scanshare v0.0.0

replace scanshare => ../
