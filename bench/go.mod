module pseudocircuit/bench

go 1.22

require pseudocircuit v0.0.0

replace pseudocircuit => ../
