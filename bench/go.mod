module github.com/i2pstudy/i2pstudy/bench

go 1.22

require github.com/i2pstudy/i2pstudy v0.0.0

replace github.com/i2pstudy/i2pstudy => ../
