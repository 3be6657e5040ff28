module backtrace/bench

go 1.22

require backtrace v0.0.0

replace backtrace => ../
