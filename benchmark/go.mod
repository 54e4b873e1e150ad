module dive/benchmark

go 1.22

require dive v0.0.0

replace dive => ../
