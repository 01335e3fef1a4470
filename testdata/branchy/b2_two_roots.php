<?php
$r0 = $_POST['name'];
if ($c0_0 == 5) {
    $r0 = $r0 . '-0';
} else {
    $r0 = htmlspecialchars($r0);
}
if ($c0_1 == 61) {
    $r0 = $r0 . '-1';
}
echo $r0;
mysql_query("SELECT v FROM t0 WHERE k='" . $r0 . "'");
echo '<p>' . $r0 . '</p>';
echo $r0;
$r1 = $_COOKIE['sid'];
if ($c1_0 == 8) {
    $r1 = $r1 . '-0';
}
if ($c1_1 == 90) {
    $r1 = $r1 . '-1';
} else {
    $r1 = htmlspecialchars($r1);
}
if ($c1_2 == 12) {
    $r1 = $r1 . '-2';
}
mysql_query("SELECT v FROM t1 WHERE k='" . $r1 . "'");
echo $r1;
mysql_query("SELECT v FROM t2 WHERE k='" . $r1 . "'");
echo '<p>' . $r1 . '</p>';
?>
